package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bundling/internal/config"
	"bundling/internal/experiments"
)

// TestRunRejectsBadSelection asserts that run refuses, before it builds a
// dataset, an -exp list naming an experiment that does not exist (a typo,
// or one that was removed) and a -benchout that two benchmarks would both
// write.
func TestRunRejectsBadSelection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	for _, c := range []struct{ exp, benchOut, want string }{
		{"nosuch", "", `unknown experiment "nosuch"`},
		{"perff", "", `unknown experiment "perff"`},
		{"perf, tabel2", "", `unknown experiment "tabel2"`},
		{"serve", "", `unknown experiment "serve"`},
		{"cluster", "", `unknown experiment "cluster"`},
		{"perf,chaos", out, "-benchout needs exactly one"},
	} {
		err := run(c.exp, "small", experiments.DefaultLambda, 0, config.Unlimited, 42, c.benchOut, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-exp %q -benchout %q: err = %v, want %q", c.exp, c.benchOut, err, c.want)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a rejected run wrote %s (stat: %v)", out, err)
	}
	if err := run(" table1 ", "small", experiments.DefaultLambda, 0, config.Unlimited, 42, "", 0); err != nil {
		t.Errorf("-exp table1: %v", err)
	}
}
