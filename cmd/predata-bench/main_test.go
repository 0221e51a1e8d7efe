package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunEachExperiment(t *testing.T) {
	cases := []struct {
		experiment string
		marker     string
	}{
		{"fig7", "sorting operation"},
		{"fig8", "GTC improvement"},
		{"fig9", "DataSpaces"},
		{"fig10", "Pixie3D"},
		{"fig11", "merged vs unmerged"},
		{"offline", "in-transit"},
		{"overload", "degradation ladder"},
		{"trace", "trace overhead"},
		{"elastic", "staging autoscaling"},
		{"ablations", "scheduled vs unscheduled"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.experiment, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, c.experiment, "all", ""); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), c.marker) {
				t.Errorf("%s output missing %q", c.experiment, c.marker)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", "all", ""); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{
		"Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
		"offline", "Ablation",
	} {
		if !strings.Contains(buf.String(), marker) {
			t.Errorf("all output missing %q", marker)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig99", "all", ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFig7Op(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig7", "nonsense", ""); err == nil {
		t.Fatal("unknown fig7 operator accepted")
	}
}

func TestJSONPath(t *testing.T) {
	cases := []struct {
		experiment, flag, want string
	}{
		{"trace", defaultJSON, "BENCH_trace.json"},
		{"serve", defaultJSON, "BENCH_serve.json"},
		{"all", defaultJSON, ""},
		{"fig8", defaultJSON, ""},
		{"trace", "out.json", "out.json"},
		{"trace", "", ""},
		{"fig8", "out.json", ""},
	}
	for _, c := range cases {
		if got := jsonPath(c.experiment, c.flag); got != c.want {
			t.Errorf("jsonPath(%q, %q) = %q, want %q", c.experiment, c.flag, got, c.want)
		}
	}
}
