package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// progress is the live single-line renderer: Progressf rewrites one
// terminal line in place (carriage return, pad-to-clear), throttled so
// a hot campaign loop can call it per sample without flooding the
// write syscall path. It stays goroutine-free — no ticker, no
// background writer — so it keeps confine's go-statement rule.
var (
	progMu    sync.Mutex
	progW     io.Writer
	progLast  int64 // wall ns of last rendered frame
	progWidth int   // width of last rendered frame, for pad-to-clear
)

// progressInterval is the minimum wall time between rendered frames.
const progressInterval = 100 * time.Millisecond

// SetProgress directs the live renderer at w (nil disables). CLIs pass
// os.Stderr only when it is a TTY and -quiet is unset.
func SetProgress(w io.Writer) {
	progMu.Lock()
	progW = w
	progLast = 0
	progWidth = 0
	progMu.Unlock()
}

// ProgressActive reports whether a progress writer is set, letting
// callers skip assembling status strings nobody will see.
func ProgressActive() bool {
	progMu.Lock()
	active := progW != nil
	progMu.Unlock()
	return active
}

// Progressf renders one status line, overwriting the previous one.
// Frames arriving within progressInterval of the last render are
// dropped. No-op without a progress writer.
func Progressf(format string, args ...any) {
	progMu.Lock()
	defer progMu.Unlock()
	if progW == nil {
		return
	}
	//mixedrelvet:allow determinism frame throttling is render-only; dropped frames never influence campaign results
	now := time.Now().UnixNano()
	if progLast != 0 && now-progLast < int64(progressInterval) {
		return
	}
	progLast = now
	line := fmt.Sprintf(format, args...)
	pad := progWidth - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(progW, "\r%s%*s", line, pad, "")
	progWidth = len(line)
}

// ProgressDone clears the status line so subsequent normal output
// starts on a clean line. Call once after the instrumented loop.
func ProgressDone() {
	progMu.Lock()
	defer progMu.Unlock()
	if progW == nil {
		return
	}
	if progWidth > 0 {
		fmt.Fprintf(progW, "\r%*s\r", progWidth, "")
	}
	progLast = 0
	progWidth = 0
}

// IsTTY reports whether f is attached to a character device — the
// auto-enable test for the live renderer, so piped and CI runs never
// see carriage-return spam.
func IsTTY(f *os.File) bool {
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
