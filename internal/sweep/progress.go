package sweep

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Printer is a Progress callback that writes one line per finished job —
// live, ordered, and safe for concurrent workers. It reports running
// counts so a long sweep is observable from a terminal or a piped log.
type Printer struct {
	mu    sync.Mutex
	w     io.Writer
	total int
	done  int
	start time.Time
}

// NewPrinter returns a progress printer over total jobs.
func NewPrinter(w io.Writer, total int) *Printer {
	return &Printer{w: w, total: total, start: time.Now()}
}

// Handle consumes one engine event; pass it as Options.Progress.
func (p *Printer) Handle(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Type {
	case EventStart:
		return // start events would double the log volume for little value
	case EventDone:
		p.done++
		note := ""
		if ev.Job.Cfg.AllowUnsafe {
			note = " (unsafe)"
		}
		fmt.Fprintf(p.w, "[%*d/%d] ok   %s ipc=%.3f (%.1fs)%s\n",
			len(strconv.Itoa(p.total)), p.done, p.total, ev.Job.Key, ev.IPC, ev.Elapsed.Seconds(), note)
	case EventFail:
		p.done++
		msg, _, _ := strings.Cut(ev.Err.Error(), "\n")
		fmt.Fprintf(p.w, "[%*d/%d] FAIL %s: %s\n",
			len(strconv.Itoa(p.total)), p.done, p.total, ev.Job.Key, msg)
	}
}

// Finish prints the closing summary line.
func (p *Printer) Finish(s Summary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "sweep finished in %.1fs: %s\n", time.Since(p.start).Seconds(), s)
}
