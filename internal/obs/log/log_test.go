package log

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func parseLine(t *testing.T, line string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not JSON: %q: %v", line, err)
	}
	return m
}

func TestLogLineFormat(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo, obs.NewFakeClock(time.Second).Now)
	l.SetTool("advisord")
	l.Info(nil, "serving", "url", "http://x", "n", 3)

	line := strings.TrimSuffix(buf.String(), "\n")
	if strings.Contains(line, "\n") {
		t.Fatalf("line contains embedded newline: %q", line)
	}
	m := parseLine(t, line)
	if m["level"] != "info" || m["tool"] != "advisord" || m["msg"] != "serving" ||
		m["url"] != "http://x" || m["n"] != float64(3) {
		t.Fatalf("line = %v", m)
	}
	if _, ok := m["ts"]; !ok {
		t.Fatal("line missing ts")
	}
	// Key order is fixed: ts, level, tool, msg, then caller fields in order.
	if !strings.HasPrefix(line, `{"ts":`) || strings.Index(line, `"url"`) > strings.Index(line, `"n"`) {
		t.Fatalf("field order wrong: %s", line)
	}
}

func TestLogLevelThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelWarn, nil)
	l.Log(nil, LevelDebug, "d")
	l.Info(nil, "i")
	l.Warn(nil, "w")
	l.Error(nil, "e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (warn+error): %q", len(lines), buf.String())
	}
	l.SetLevel(LevelDebug)
	if !l.Enabled(LevelDebug) || l.LevelNow() != LevelDebug {
		t.Fatal("SetLevel did not take")
	}
}

func TestLogTraceCorrelation(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo, nil)
	tr := obs.NewTrace("recommend", obs.NewFakeClock(time.Millisecond).Now)
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	l.Info(ctx, "hello")
	m := parseLine(t, strings.TrimSpace(buf.String()))
	if m["trace_id"] != tr.ID() || m["span_id"] != tr.Root().ID() {
		t.Fatalf("trace correlation = %v, want %s/%s", m, tr.ID(), tr.Root().ID())
	}
	buf.Reset()
	l.Info(context.Background(), "no trace")
	m = parseLine(t, strings.TrimSpace(buf.String()))
	if _, ok := m["trace_id"]; ok {
		t.Fatal("untraced line carries trace_id")
	}
}

func TestLogMalformedKV(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo, nil)
	l.Info(nil, "odd", "key") // missing value
	m := parseLine(t, strings.TrimSpace(buf.String()))
	if m["key"] != "!MISSING" {
		t.Fatalf("odd kv = %v", m)
	}
	buf.Reset()
	l.Info(nil, "badkey", 42, "v")
	m = parseLine(t, strings.TrimSpace(buf.String()))
	if _, ok := m["!BADKEY(42)"]; !ok {
		t.Fatalf("non-string key = %v", m)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "Warning": LevelWarn, "ERROR": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}

func TestLogSetOutput(t *testing.T) {
	var a, b bytes.Buffer
	l := New(&a, LevelInfo, nil)
	l.Info(nil, "one")
	l.SetOutput(&b)
	l.Info(nil, "two")
	if !strings.Contains(a.String(), "one") || strings.Contains(a.String(), "two") {
		t.Fatalf("first writer = %q", a.String())
	}
	if !strings.Contains(b.String(), "two") {
		t.Fatalf("second writer = %q", b.String())
	}
}
