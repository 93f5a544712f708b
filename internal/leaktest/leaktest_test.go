package leaktest

import "testing"

// TestCountSeesModuleGoroutines: a goroutine this module starts is counted
// while it runs, and Check returns once it has exited.
func TestCountSeesModuleGoroutines(t *testing.T) {
	base := Count()
	stop := make(chan struct{})
	go func() { <-stop }()
	if got := Count(); got != base+1 {
		t.Errorf("Count with one module goroutine running = %d, want %d", got, base+1)
	}
	close(stop)
	Check(t, base)
}
