package obs

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// RunFlags bundles the observability flags every decor-* binary exposes:
//
//	-metrics <file>     Prometheus text exposition dump at exit ("-" = stdout)
//	-cpuprofile <file>  pprof CPU profile of the whole run
//	-memprofile <file>  pprof heap profile taken at exit (after a GC)
//
// Usage: Register the flags before flag.Parse, call Start right after,
// and Finish at the end of main (error-exit paths skip the dumps, like
// they skip any other output).
type RunFlags struct {
	Metrics    string
	CPUProfile string
	MemProfile string

	cpuFile *os.File
}

// Register installs the three flags on fs.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "", `write Prometheus text-format metrics to this file at exit ("-" = stdout)`)
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
}

// Start begins CPU profiling if requested. The exit dump still exposes
// every instrument, even of phases this run never enters: the packages
// that own them create them at init.
func (f *RunFlags) Start() error {
	if f.CPUProfile != "" {
		fh, err := os.Create(f.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return err
		}
		f.cpuFile = fh
	}
	return nil
}

// Finish stops the CPU profile and writes the heap profile and metrics
// dumps that were requested.
func (f *RunFlags) Finish() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		err := f.cpuFile.Close()
		f.cpuFile = nil
		if err != nil {
			return err
		}
	}
	if f.MemProfile != "" {
		fh, err := os.Create(f.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle allocations so the heap profile is meaningful
		if err := pprof.WriteHeapProfile(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	if f.Metrics != "" {
		out := os.Stdout
		if f.Metrics != "-" {
			fh, err := os.Create(f.Metrics)
			if err != nil {
				return err
			}
			defer fh.Close()
			out = fh
		}
		if err := Default().WritePrometheus(out); err != nil {
			return err
		}
	}
	return nil
}
