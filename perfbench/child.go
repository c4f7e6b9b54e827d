package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childResult is what a child process reports on its last stdout line.
type childResult struct {
	Setups    []time.Duration    `json:"setups"`
	Wall      time.Duration      `json:"wall"`
	Ops       int                `json:"ops"`
	Alloc     uint64             `json:"alloc"`
	CPU       time.Duration      `json:"cpu"`
	Steal     time.Duration      `json:"steal"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errs      []string           `json:"errs,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// childTimeout bounds one child so the whole run stays within its limit.
const childTimeout = 150 * time.Second

// spawnChild runs this binary as a child of the given kind, cold in its
// own process, and waits for it.
func spawnChild(o options, kind string, traced bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--child", kind, "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10), "--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", trace, "--out", o.outDir}
	if o.recordPath != "" {
		args = append(args, "--record", o.recordPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", kind, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child %s: decoding result: %w", kind, err)
	}
	return &res, nil
}

// runChild is the child side: do one kind of work and print its result.
func runChild(o options, stdout io.Writer) error {
	rec, err := newRecorder(o.workload, o.seed, o.recordPath != "")
	if err != nil {
		return err
	}
	var res *childResult
	switch o.child {
	case "campaign-setup":
		start := time.Now()
		if _, _, err := campaignSetup(o.seed, nil); err != nil {
			return err
		}
		res = &childResult{Setups: []time.Duration{time.Since(start)}}
	case "repro-pass":
		if res, err = reproPass(o, rec); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child kind %q", o.child)
	}
	if rec.recording {
		res.Digests = rec.got
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// merge folds a child's checks and digests into the parent's.
func (r *recorder) mergeChild(rep *report, res *childResult) {
	rep.check.merge(checker{attempted: res.Attempted, failed: res.Failed, errs: res.Errs})
	for k, v := range res.Digests {
		r.got[k] = v
	}
}
