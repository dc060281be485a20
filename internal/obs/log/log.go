// Package log is the structured, trace-correlated event log of the pipeline
// (DESIGN.md §11): leveled JSONL lines on a single writer, replacing the
// ad-hoc stderr prints the binaries grew. Every line is one JSON object with
// a fixed prefix — ts, level, tool, msg — followed by the trace/span IDs of
// the context (when it carries one) and the caller's key-value fields in
// argument order, so logs join against the flight recorder by trace_id.
//
// The Default logger writes to stderr at Info; binaries retarget it through
// the shared -log-level / -log-file flags (internal/cli).
package log

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Level orders log severities.
type Level int32

const (
	// LevelDebug is per-request detail, off by default.
	LevelDebug Level = iota
	// LevelInfo is normal operational events (startup, drain, model swap).
	LevelInfo
	// LevelWarn is degraded-but-handled events (shed, rollback, breaker).
	LevelWarn
	// LevelError is failures the operator must look at.
	LevelError
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "unknown"
	}
}

// ParseLevel maps a flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("log: unknown level %q (want debug, info, warn or error)", s)
}

// linesTotal counts emitted lines per level, so a run report shows how noisy
// the run was without re-reading the log.
func linesTotal(l Level) *obs.Counter {
	return obs.GetCounter(obs.Name("log_lines_total", "level", l.String()))
}

// Logger emits JSONL lines at or above its level. Safe for concurrent use;
// lines are written with a single Write call each, so concurrent loggers on
// one O_APPEND file do not interleave.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	tool  string
	clock obs.Clock
	level atomic.Int32
}

// New builds a logger writing to w at the given level. clock may be nil for
// wall time.
func New(w io.Writer, level Level, clock obs.Clock) *Logger {
	if clock == nil {
		clock = time.Now
	}
	l := &Logger{w: w, clock: clock}
	l.level.Store(int32(level))
	return l
}

// Default is the process-wide logger: stderr at Info until a binary
// retargets it (cli.LogOpts.Apply).
var Default = New(os.Stderr, LevelInfo, nil)

// SetOutput retargets the logger.
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.w = w
	l.mu.Unlock()
}

// SetTool sets the fixed tool field stamped on every line.
func (l *Logger) SetTool(tool string) {
	l.mu.Lock()
	l.tool = tool
	l.mu.Unlock()
}

// SetLevel changes the emission threshold.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// LevelNow returns the current threshold.
func (l *Logger) LevelNow() Level { return Level(l.level.Load()) }

// Enabled reports whether a line at level would be emitted.
func (l *Logger) Enabled(level Level) bool { return level >= l.LevelNow() }

// Log emits one line: msg plus alternating key-value fields (values are
// JSON-marshaled; a value that cannot marshal is stringified via %v). ctx
// may be nil; when it carries a trace, trace_id and span_id are included.
func (l *Logger) Log(ctx context.Context, level Level, msg string, kv ...any) {
	if l == nil || !l.Enabled(level) {
		return
	}
	span := obs.SpanFrom(ctx)

	l.mu.Lock()
	defer l.mu.Unlock()
	var b []byte
	b = append(b, `{"ts":`...)
	b = appendJSONString(b, l.clock().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = appendJSONString(b, level.String())
	if l.tool != "" {
		b = append(b, `,"tool":`...)
		b = appendJSONString(b, l.tool)
	}
	b = append(b, `,"msg":`...)
	b = appendJSONString(b, msg)
	if span != nil {
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, span.Trace().ID())
		b = append(b, `,"span_id":`...)
		b = appendJSONString(b, span.ID())
	}
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("!BADKEY(%v)", kv[i])
		}
		var val any = "!MISSING"
		if i+1 < len(kv) {
			val = kv[i+1]
		}
		b = append(b, ',')
		b = appendJSONString(b, key)
		b = append(b, ':')
		if enc, err := json.Marshal(val); err == nil {
			b = append(b, enc...)
		} else {
			b = appendJSONString(b, fmt.Sprintf("%v", val))
		}
	}
	b = append(b, "}\n"...)
	_, _ = l.w.Write(b)
	linesTotal(level).Inc()
}

func appendJSONString(b []byte, s string) []byte {
	enc, err := json.Marshal(s)
	if err != nil { // cannot happen for a string, but keep the line valid
		return append(b, `""`...)
	}
	return append(b, enc...)
}

// Info emits at LevelInfo on l.
func (l *Logger) Info(ctx context.Context, msg string, kv ...any) {
	l.Log(ctx, LevelInfo, msg, kv...)
}

// Warn emits at LevelWarn on l.
func (l *Logger) Warn(ctx context.Context, msg string, kv ...any) {
	l.Log(ctx, LevelWarn, msg, kv...)
}

// Error emits at LevelError on l.
func (l *Logger) Error(ctx context.Context, msg string, kv ...any) {
	l.Log(ctx, LevelError, msg, kv...)
}

// Info emits at LevelInfo on the Default logger.
func Info(ctx context.Context, msg string, kv ...any) { Default.Log(ctx, LevelInfo, msg, kv...) }

// Warn emits at LevelWarn on the Default logger.
func Warn(ctx context.Context, msg string, kv ...any) { Default.Log(ctx, LevelWarn, msg, kv...) }

// Error emits at LevelError on the Default logger.
func Error(ctx context.Context, msg string, kv ...any) { Default.Log(ctx, LevelError, msg, kv...) }
