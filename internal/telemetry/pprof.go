package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/trace"
)

// StartPprof serves net/http/pprof on addr (e.g. "localhost:6060") and
// returns a stop function. The handlers are mounted on a private mux so
// enabling profiling never touches http.DefaultServeMux.
func StartPprof(addr string) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	//mixedrelvet:allow confine pprof serving is debug-only and lifetime-bounded by the returned stop function
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// StartTrace begins a runtime/trace capture into path and returns a
// stop function that ends the capture and closes the file.
func StartTrace(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.Start(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		trace.Stop()
		return f.Close()
	}, nil
}
