// HTTP exposure of the registry: Prometheus text format on /metrics, the
// JSON snapshot on /debug/vars, and the standard net/http/pprof profiling
// endpoints — everything an operator needs to watch and profile a running
// -live pipeline without attaching a debugger.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// safeF is a float64 that JSON-encodes NaN and ±Inf as strings instead of
// failing the whole document the way encoding/json does. Finite values keep
// encoding/json's exact byte format so snapshots stay byte-stable.
type SafeFloat float64

// MarshalJSON implements json.Marshaler.
func (f SafeFloat) MarshalJSON() ([]byte, error) {
	return appendJSONFloat(nil, float64(f)), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting both encodings.
func (f *SafeFloat) UnmarshalJSON(data []byte) error {
	v, err := parseJSONFloat(data)
	if err != nil {
		return err
	}
	*f = SafeFloat(v)
	return nil
}

// appendJSONFloat appends v in encoding/json's float format, with NaN/±Inf
// as quoted strings.
func appendJSONFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	// encoding/json's algorithm: shortest 'f' form, switching to 'e' for
	// extreme magnitudes and compacting the exponent.
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// parseJSONFloat parses either a JSON number or one of the quoted
// NaN/+Inf/-Inf forms produced by appendJSONFloat.
func parseJSONFloat(data []byte) (float64, error) {
	s := string(data)
	switch s {
	case `"NaN"`:
		return math.NaN(), nil
	case `"+Inf"`, `"Inf"`:
		return math.Inf(1), nil
	case `"-Inf"`:
		return math.Inf(-1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: invalid float %q", s)
	}
	return v, nil
}

// promFloat formats a sample value for the Prometheus text format.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders {k="v",...}, appending extra to the series labels.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm serializes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: the snapshot's series
// order is already sorted, and one TYPE header is emitted per family on its
// first series.
func (s Snapshot) WriteProm(w io.Writer) error {
	typed := make(map[string]bool)
	family := func(name, kind string) string {
		if typed[name] {
			return ""
		}
		typed[name] = true
		return "# TYPE " + name + " " + kind + "\n"
	}
	for _, c := range s.Counters {
		if _, err := io.WriteString(w, family(c.Name, "counter")+c.Name+promLabels(c.Labels)+" "+strconv.FormatInt(c.Value, 10)+"\n"); err != nil {
			return fmt.Errorf("obs: writing counter %s: %w", c.Name, err)
		}
	}
	for _, g := range s.Gauges {
		if _, err := io.WriteString(w, family(g.Name, "gauge")+g.Name+promLabels(g.Labels)+" "+promFloat(float64(g.Value))+"\n"); err != nil {
			return fmt.Errorf("obs: writing gauge %s: %w", g.Name, err)
		}
	}
	for _, h := range s.Histograms {
		var b strings.Builder
		b.WriteString(family(h.Name, "histogram"))
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			b.WriteString(h.Name + "_bucket" + promLabels(h.Labels, L("le", promFloat(bound))) + " " + strconv.FormatInt(cum, 10) + "\n")
		}
		cum += h.Counts[len(h.Bounds)]
		b.WriteString(h.Name + "_bucket" + promLabels(h.Labels, L("le", "+Inf")) + " " + strconv.FormatInt(cum, 10) + "\n")
		b.WriteString(h.Name + "_sum" + promLabels(h.Labels) + " " + promFloat(float64(h.Sum)) + "\n")
		b.WriteString(h.Name + "_count" + promLabels(h.Labels) + " " + strconv.FormatInt(h.Count, 10) + "\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return fmt.Errorf("obs: writing histogram %s: %w", h.Name, err)
		}
	}
	return nil
}

// WriteJSON serializes the snapshot as indented JSON — the /debug/vars
// document. Deterministic for a deterministic snapshot: field order is
// fixed by the struct and series order by the snapshot.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	return nil
}

// Handler serves the registry: /metrics (Prometheus text), /debug/vars
// (JSON snapshot) and /debug/pprof/* (the standard profiling endpoints).
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		_, _ = io.WriteString(w, "adavp observability\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// StartServer listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves
// Handler(reg) in the background until ctx is cancelled, at which point the
// listener closes and Done() is signalled.
func StartServer(ctx context.Context, addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		srv: &http.Server{
			Handler: Handler(reg),
			// Requests inherit the run's lifetime.
			BaseContext: func(net.Listener) context.Context { return ctx },
		},
		ln:   ln,
		done: make(chan struct{}),
	}
	go s.serve()
	go s.watch(ctx)
	return s, nil
}

// serve runs the accept loop; it exits when watch closes the server.
func (s *Server) serve() {
	defer close(s.done)
	_ = s.srv.Serve(s.ln)
}

// watch closes the server once ctx is cancelled.
func (s *Server) watch(ctx context.Context) {
	<-ctx.Done()
	_ = s.srv.Close()
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Done is closed once the server has shut down.
func (s *Server) Done() <-chan struct{} { return s.done }
