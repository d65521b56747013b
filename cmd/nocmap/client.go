package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"nocmap/pkg/noc"
)

// runRemote delegates the mapping to a nocserved daemon through noc.Client:
// the design travels in a POST /v1/map request and the returned summary is
// printed in the same shape as a local run, plus the cache verdict. The
// topology choice travels as the request's topology field (the server falls
// back to the design's own tag when it is empty). A non-zero timeout bounds
// the whole call, so a hung server fails the CLI instead of stalling it.
func runRemote(stdout, stderr io.Writer, server string, timeout time.Duration, in string,
	freq float64, opts []noc.Option) error {
	d, err := noc.LoadDesignFile(in)
	if err != nil {
		return err
	}
	client := noc.NewClient(server, noc.WithTimeout(timeout))
	resp, err := client.Map(context.Background(), d, opts...)
	if err != nil {
		return err
	}

	verdict := "computed"
	if resp.Cached {
		verdict = "cache hit"
	}
	return printRemoteSummary(stdout, stderr, server, verdict, resp, freq)
}

// printRemoteSummary prints a server-side mapping result in the same shape
// as a local run, tagged with where it came from and whether the job
// deadline cut it short.
func printRemoteSummary(stdout, stderr io.Writer, server, verdict string, resp *noc.MapResponse, freq float64) error {
	if resp.Truncated {
		verdict += ", truncated by the deadline and not stored"
	}
	r := &resp.Result
	fmt.Fprintf(stdout, "design %q: %d cores, %d use-cases (server %s, %s)\n",
		r.Design, len(r.CoreSwitch), len(r.UseCases), server, verdict)
	return printSummary(stdout, stderr, r, resp.Engine, freq)
}

// runRemoteStream maps the design in serve-then-improve mode: every
// incumbent the daemon streams prints one line to stderr as it lands — the
// greedy answer within milliseconds, then each strictly better result the
// background engine finds — and the final result prints in the usual
// summary shape once the job ends.
func runRemoteStream(stdout, stderr io.Writer, server string, timeout time.Duration, in string,
	freq float64, opts []noc.Option) error {
	d, err := noc.LoadDesignFile(in)
	if err != nil {
		return err
	}
	client := noc.NewClient(server, noc.WithTimeout(timeout))
	start := time.Now()
	improvements, err := client.MapStream(context.Background(), d, opts...)
	if err != nil {
		return err
	}
	var final *noc.MapResponse
	for imp := range improvements {
		if imp.Err != nil {
			return imp.Err
		}
		line := fmt.Sprintf("stream: [+%.3fs] #%d %s %s cost=%.1f",
			time.Since(start).Seconds(), imp.Seq, imp.Stage, imp.Engine, imp.Cost)
		if imp.Response != nil {
			line += fmt.Sprintf(" switches=%d", imp.Response.Result.Switches)
		}
		if imp.Counts.Moves > 0 {
			line += fmt.Sprintf(" moves=%d accepted=%d", imp.Counts.Moves, imp.Counts.Accepted)
		}
		fmt.Fprintln(stderr, line)
		if imp.Final {
			if imp.Stage == "failed" {
				return fmt.Errorf("job %s failed: %s", imp.Job, imp.Error)
			}
			final = imp.Response
		}
	}
	if final == nil {
		return fmt.Errorf("stream ended without a final result")
	}
	return printRemoteSummary(stdout, stderr, server, "streamed", final, freq)
}
