package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helium/internal/schedule"
)

// captureStderr mirrors captureStdout for the warn-and-apply path, whose
// warning goes to stderr so `helium gen` pipelines stay clean.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	return <-done
}

// TestLoadSchedulesFileStates is the table over every schedules.json
// state a deployment can hand the CLI — missing, empty, malformed,
// invalid, unstamped, same-machine, other-machine — crossed with the two
// consumer roles: executing consumers (`helium run`) must never apply a
// set tuned elsewhere (drop with the reason printed, or refuse under
// -strict), while analysis consumers (`helium gen`, `helium bench`)
// warn-and-apply so artifacts stay byte-stable across build hosts.
func TestLoadSchedulesFileStates(t *testing.T) {
	// The host key is dynamic; render the fixture against the real one.
	hostSet := `{"machine":"` + schedule.HostMachineKey() + `","kernels":{"brighten":{"workers":1}}}`

	cases := []struct {
		name    string
		content string // file body; "" with missing=true means no file
		missing bool

		wantErr     bool // parse/validation failure: fatal for every consumer
		wantExecSet bool // forExec keeps the set
		wantAnaSet  bool // analysis keeps the set
		wantStrict  bool // forExec -strict errors even where plain exec degrades
		stdoutHas   string
		stderrHas   string
	}{
		{
			name:        "missing file",
			missing:     true,
			wantExecSet: false, wantAnaSet: false,
		},
		{
			name:    "empty file",
			content: "",
			wantErr: true,
		},
		{
			name:    "malformed json",
			content: `{"kernels": {`,
			wantErr: true,
		},
		{
			name:    "invalid schedule",
			content: `{"kernels":{"brighten":{"workers":-3}}}`,
			wantErr: true,
		},
		{
			// Per-stage entries (and the lane and tile fields inside them)
			// are retired knobs: a set still naming one fails to load.
			name:    "retired stages field",
			content: `{"kernels":{"brighten":{"stages":[{"lane":13}]}}}`,
			wantErr: true,
		},
		{
			name:        "unstamped set matches anywhere",
			content:     `{"kernels":{"brighten":{"workers":1}}}`,
			wantExecSet: true, wantAnaSet: true,
		},
		{
			name:        "same machine class",
			content:     hostSet,
			wantExecSet: true, wantAnaSet: true,
		},
		{
			name:        "other machine class",
			content:     `{"machine":"64c/512b","kernels":{"brighten":{"workers":32}}}`,
			wantExecSet: false, wantAnaSet: true, wantStrict: true,
			stdoutHas: "machine class 64c/512b",
			stderrHas: "warning",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "schedules.json")
			if !tc.missing {
				if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			if tc.wantErr {
				// Corrupt sets are fatal for every consumer: silently
				// benching or generating against defaults while claiming
				// the tuned set would be worse than stopping.
				for _, forExec := range []bool{true, false} {
					if _, err := loadSchedules(path, false, forExec, false); err == nil {
						t.Errorf("forExec=%v accepted the corrupt set", forExec)
					}
				}
				return
			}

			// Executing consumer (`helium run`).
			stdout := captureStdout(t, func() {
				set, err := loadSchedules(path, false, true, false)
				if err != nil {
					t.Errorf("forExec: unexpected error: %v", err)
				}
				if (set != nil) != tc.wantExecSet {
					t.Errorf("forExec kept set: %v, want %v", set != nil, tc.wantExecSet)
				}
			})
			if !tc.wantExecSet && !tc.missing {
				// A dropped set must say why on stdout, next to the run's
				// own backend report.
				if !strings.Contains(stdout, "fallback:") || !strings.Contains(stdout, tc.stdoutHas) {
					t.Errorf("drop reason not printed:\nstdout: %q", stdout)
				}
			}

			// Executing consumer under -strict: refuse instead of degrade.
			_, strictErr := loadSchedules(path, false, true, true)
			if (strictErr != nil) != tc.wantStrict {
				t.Errorf("strict error = %v, want error: %v", strictErr, tc.wantStrict)
			}
			if tc.wantStrict && !strings.Contains(strictErr.Error(), "-strict") {
				t.Errorf("strict refusal does not name the mode: %v", strictErr)
			}

			// Analysis consumer (`helium gen`/`bench`): warn-and-apply.
			anaErr := captureStderr(t, func() {
				set, err := loadSchedules(path, false, false, false)
				if err != nil {
					t.Errorf("analysis: unexpected error: %v", err)
				}
				if (set != nil) != tc.wantAnaSet {
					t.Errorf("analysis kept set: %v, want %v", set != nil, tc.wantAnaSet)
				}
			})
			if tc.stderrHas != "" && !strings.Contains(anaErr, tc.stderrHas) {
				t.Errorf("analysis warning missing %q:\nstderr: %q", tc.stderrHas, anaErr)
			}
			if tc.stderrHas == "" && strings.Contains(anaErr, "warning") {
				t.Errorf("analysis warned about a clean set:\nstderr: %q", anaErr)
			}
		})
	}
}
