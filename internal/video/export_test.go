package video

// StaticBackground reports, for the external tests, whether v's camera is
// static and whether its shared background raster has been built.
func StaticBackground(v *Video) (static, built bool) {
	return v.bg != nil, v.bg != nil && v.bg.pix != nil
}
