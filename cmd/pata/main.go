// Command pata analyzes mini-C source files with the PATA framework and
// prints bug reports.
//
// Usage:
//
//	pata [flags] file.c [file2.c ...]
//	pata [flags] -dir path/to/sources
//
// Flags:
//
//	-checkers npd,uva,ml   checkers to run (also: dl, aiu, dbz, all)
//	-dir DIR               analyze every .c file under DIR
//	-no-alias              run the PATA-NA alias-unaware variant (§5.4)
//	-no-validate           skip Stage-2 SMT path validation
//	-no-batch-validate     disable batched prefix-sharing Stage-2 validation
//	-validate-backend B    Stage-2 solver backend: builtin, smtlib2, or smtlib2:CMD
//	-max-conts N           callee continuations per call (P2 cap; negative = unlimited)
//	-stats                 print engine statistics
//	-json                  emit machine-readable JSON
//	-unroll N              loop unroll factor (default 1, the paper's rule)
//	-workers N             Stage-1 analysis workers (0 = GOMAXPROCS, 1 = sequential)
//	-validate-workers N    Stage-2 validation workers (0 = GOMAXPROCS, 1 = sequential)
//	-entry-timeout D       wall-clock budget per entry function (0 = none)
//	-run-timeout D         wall-clock budget for the whole run (0 = none)
//	-max-retries N         degrade-ladder retries per sick entry (0 = default 1)
//	-cache-dir DIR         persist per-entry results in DIR for incremental re-runs
//	-cache-max-bytes N     evict least-recently-used cache entries past N bytes
//	-cpuprofile FILE       write a CPU profile of the analysis to FILE
//	-memprofile FILE       write an allocation profile at exit to FILE
//	-blockprofile FILE     write a goroutine blocking profile at exit to FILE
//	-mutexprofile FILE     write a mutex contention profile at exit to FILE
//
// Ctrl-C (or SIGTERM) cancels the analysis gracefully: the partial result is
// printed with its "incomplete analysis" section and a clean run exits 130.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	pata "repro"
	"repro/internal/profiles"
	"repro/internal/report"
)

func main() {
	checkers := flag.String("checkers", "", "comma-separated checkers: npd,uva,ml,dl,aiu,dbz or 'all' (default npd,uva,ml)")
	dir := flag.String("dir", "", "analyze every .c file under this directory")
	noAlias := flag.Bool("no-alias", false, "disable alias analysis (PATA-NA)")
	noValidate := flag.Bool("no-validate", false, "skip SMT path validation")
	noBatchValidate := flag.Bool("no-batch-validate", false, "disable batched prefix-sharing Stage-2 validation (solve every candidate from scratch)")
	validateBackend := flag.String("validate-backend", "", "Stage-2 solver backend: builtin (default), smtlib2, or smtlib2:CMD ARGS to cross-check against an external SMT-LIB2 solver")
	maxConts := flag.Int("max-conts", 0, "callee continuations per call: the P2 cap (0 = default 2, negative = unlimited)")
	stats := flag.Bool("stats", false, "print engine statistics")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	unroll := flag.Int("unroll", 1, "loop unroll factor (paper default 1)")
	workers := flag.Int("workers", 0, "Stage-1 analysis workers (0 = GOMAXPROCS, 1 = sequential)")
	validateWorkers := flag.Int("validate-workers", 0, "Stage-2 validation workers (0 = GOMAXPROCS, 1 = sequential)")
	cacheDir := flag.String("cache-dir", "", "persist per-entry analysis results in this directory for incremental re-runs")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries once the cache exceeds this many bytes (0 = unlimited)")
	entryTimeout := flag.Duration("entry-timeout", 0, "wall-clock budget per entry function, e.g. 30s (0 = no deadline); sick entries retry on the degrade ladder and are reported as incomplete")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock budget for the whole analysis (0 = no deadline); on expiry the partial result is reported")
	maxRetries := flag.Int("max-retries", 0, "degrade-ladder retries for a timed-out or panicking entry (0 = default 1, negative = none)")
	witness := flag.Bool("witness", false, "print each bug's witness path and trigger values")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile at exit to this file (captures channel/backpressure stalls)")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile at exit to this file (captures lock convoys)")
	flag.Parse()

	cfg := pata.Config{
		NoAlias:                 *noAlias,
		SkipValidation:          *noValidate,
		MaxContinuationsPerCall: *maxConts,
		LoopUnroll:              *unroll,
		Workers:                 *workers,
		ValidateWorkers:         *validateWorkers,
		CacheDir:                *cacheDir,
		CacheMaxBytes:           *cacheMaxBytes,
		WitnessPaths:            *witness,
		EntryTimeout:            *entryTimeout,
		RunTimeout:              *runTimeout,
		MaxRetries:              *maxRetries,
		NoBatchValidate:         *noBatchValidate,
		ValidateBackend:         *validateBackend,
	}
	if *checkers != "" {
		cfg.Checkers = strings.Split(*checkers, ",")
	}

	prof := &profiles.Set{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "pata:", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM cancels the analysis through the engine's context
	// path: the run stops at the next bounded unit of work and the partial
	// result — with its "incomplete analysis" section — is still printed.
	// A second signal kills the process the default way (stop() restores
	// default handling once the analysis returns).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	var (
		res *pata.Result
		err error
	)
	switch {
	case *dir != "":
		res, err = pata.AnalyzeDirCtx(ctx, *dir, cfg)
	case flag.NArg() > 0:
		res, err = pata.AnalyzeFilesCtx(ctx, flag.Args(), cfg)
	default:
		fmt.Fprintln(os.Stderr, "usage: pata [flags] file.c ...  |  pata -dir DIR")
		flag.PrintDefaults()
		os.Exit(2)
	}
	interrupted := ctx.Err() != nil
	stop()
	if err != nil {
		// The library already prefixes its errors with "pata: ".
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "pata: interrupted, reporting partial results")
	}

	// exit wraps os.Exit so the requested profiles are written first. An
	// interrupted clean run exits 130 (128+SIGINT convention) — "no bugs"
	// from a partial analysis is not a clean bill; bugs found still exit 3
	// (the finding stands even if the run was cut short).
	exit := func(code int) {
		if werr := prof.Stop(); werr != nil {
			fmt.Fprintln(os.Stderr, "pata:", werr)
			if code == 0 {
				code = 1
			}
		}
		if interrupted && code == 0 {
			code = 130
		}
		os.Exit(code)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Bugs       []pata.Bug             `json:"bugs"`
			Incomplete []pata.IncompleteEntry `json:"incomplete,omitempty"`
			Stats      pata.Stats             `json:"stats"`
		}{Bugs: res.Bugs, Incomplete: res.Incomplete, Stats: res.Stats}); err != nil {
			fmt.Fprintln(os.Stderr, "pata:", err)
			exit(1)
		}
		if len(res.Bugs) > 0 {
			exit(3)
		}
		exit(0)
	}
	if len(res.Bugs) == 0 {
		fmt.Println("no bugs found")
		// Result.String (the branch below) already renders the incomplete
		// section; without bugs it must still be visible.
		report.WriteIncomplete(os.Stdout, res.Incomplete)
	} else {
		fmt.Print(res)
		if *witness {
			for i, b := range res.Bugs {
				fmt.Printf("\n[%d] %s at %s:%d\n", i+1, b.Type, b.File, b.Line)
				if len(b.Trigger) > 0 {
					fmt.Printf("    trigger: %s\n", strings.Join(b.Trigger, ", "))
				}
				if len(b.AliasSet) > 0 {
					fmt.Printf("    alias set: %s\n", strings.Join(b.AliasSet, ", "))
				}
				for _, line := range b.Witness {
					fmt.Println("   ", line)
				}
			}
		}
	}
	if *stats {
		fmt.Println()
		report.WriteStats(os.Stdout, res.Stats)
	}
	if len(res.Bugs) > 0 {
		exit(3) // bugs found: non-zero for CI use
	}
	exit(0)
}
