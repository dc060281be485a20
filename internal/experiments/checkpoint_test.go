package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ A, B float64 }
	if j.Len() != 0 {
		t.Fatalf("fresh journal Len = %d", j.Len())
	}
	var miss cell
	if j.Lookup("k1", &miss) {
		t.Fatal("lookup hit on empty journal")
	}
	want := cell{A: 0.1234567890123456789, B: -3}
	if err := j.Record("k1", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the record must survive and round-trip float64 exactly.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got cell
	if !j2.Lookup("k1", &got) || got != want {
		t.Fatalf("reloaded cell = %+v, want %+v", got, want)
	}
	if j2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j2.Len())
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("good", 42); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: a truncated trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","val":`)
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should not fail open: %v", err)
	}
	var v int
	if !j2.Lookup("good", &v) || v != 42 {
		t.Fatalf("intact record lost: %v %d", j2.Lookup("good", &v), v)
	}
	if j2.Lookup("torn", &v) {
		t.Fatal("torn record resurrected")
	}
	// The journal must still accept appends after a torn tail, and a
	// reopen must find them: the torn fragment is cut, not glued onto.
	if err := j2.Record("after", 7); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	var after int
	if !j3.Lookup("after", &after) || after != 7 {
		t.Fatalf("record appended after a torn tail lost on reopen: %d", after)
	}
	if !j3.Lookup("good", &v) || v != 42 {
		t.Fatalf("intact record lost on reopen: %d", v)
	}
}

func TestJournaledSkipsCompletedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := &Setup{Journal: j}
	calls := 0
	compute := func() (float64, error) { calls++; return 1.5, nil }
	for i := 0; i < 3; i++ {
		v, err := Journaled(s, "cell", compute)
		if err != nil || v != 1.5 {
			t.Fatalf("journaled = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	// Without a journal it is a plain call every time.
	plain := &Setup{}
	Journaled(plain, "cell", compute)
	Journaled(plain, "cell", compute)
	if calls != 3 {
		t.Fatalf("journal-less calls = %d, want 3", calls)
	}
}

func TestJournaledNeverRecordsFailedCells(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := &Setup{Journal: j}
	_, err = Journaled(s, "cell", func() (int, error) { return 0, context.Canceled })
	if err == nil {
		t.Fatal("want error")
	}
	if j.Len() != 0 {
		t.Fatal("failed cell was journaled")
	}
}
