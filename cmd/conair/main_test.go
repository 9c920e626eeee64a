package main

import (
	"os"
	"testing"

	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/sched"
)

func loadTestdata(t *testing.T, name string) *mir.Module {
	t.Helper()
	src, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseSite(t *testing.T) {
	m := loadTestdata(t, "orderviolation.mir")
	pos, err := parseSite(m, "reader:assert:0")
	if err != nil {
		t.Fatal(err)
	}
	if m.At(pos).Op != mir.OpAssert {
		t.Errorf("resolved %v, not an assert", m.At(pos).Op)
	}
	for _, bad := range []string{
		"", "reader:assert", "reader:frob:0", "reader:assert:x",
		"nosuch:assert:0", "reader:assert:9",
	} {
		if _, err := parseSite(m, bad); err == nil {
			t.Errorf("parseSite(%q) should fail", bad)
		}
	}
	// All opcode spellings resolve.
	for _, s := range []string{"reader:output:0", "main:assert:0"} {
		_, err := parseSite(m, s)
		if s == "main:assert:0" && err == nil {
			t.Errorf("main has no assert; %q should fail", s)
		}
		if s == "reader:output:0" && err != nil {
			t.Errorf("parseSite(%q): %v", s, err)
		}
	}
}

// The testdata programs behave as documented: they fail raw and recover
// after hardening — the CLI round trip in library form.
func TestTestdataPrograms(t *testing.T) {
	cases := []struct {
		file string
		kind mir.FailKind
	}{
		{"orderviolation.mir", mir.FailAssert},
		{"deadlock.mir", mir.FailHang},
	}
	for _, c := range cases {
		m := loadTestdata(t, c.file)
		r := interp.RunModule(m, interp.Config{Sched: sched.NewRandom(1), MaxSteps: 1_000_000})
		if r.Completed || r.Failure.Kind != c.kind {
			t.Fatalf("%s: want %v failure, got %+v", c.file, c.kind, r)
		}
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		hr := interp.RunModule(h.Module, interp.Config{Sched: sched.NewRandom(1), MaxSteps: 5_000_000})
		if !hr.Completed {
			t.Fatalf("%s: hardened run failed: %v", c.file, hr.Failure)
		}
		// The hardened text round-trips through the parser, which is what
		// the -o flag writes.
		if _, err := mir.Parse(mir.Print(h.Module)); err != nil {
			t.Fatalf("%s: hardened module does not reparse: %v", c.file, err)
		}
	}
}

// TestRunRecordRejectsModuleWithoutMain: a parseable module with no main
// (an empty file) is an error from -record, not an interpreter panic.
func TestRunRecordRejectsModuleWithoutMain(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/empty.mir"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := dir + "/x.cnr"
	err := runRecord(recordOpts{out: out, file: file, schedN: "random", quiet: true})
	if err == nil {
		t.Fatal("runRecord accepted a module without main")
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("runRecord wrote an artifact for a module without main")
	}
}
