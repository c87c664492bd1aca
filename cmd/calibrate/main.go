// Command calibrate reproduces the paper's machine calibration twice:
// once inside the simulator (the STREAM workload on the modelled bus,
// pinned to the paper's 29.5 trans/usec) and once natively on the host
// (real STREAM kernels over host memory), so a user can re-base the
// simulator's capacity constant on their own machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"busaware"
	"busaware/internal/mem"
	"busaware/internal/report"
)

func main() {
	elems := flag.Int("n", 1<<23, "native STREAM array elements (float64)")
	iters := flag.Int("iters", 5, "native STREAM iterations (best run reported)")
	skipNative := flag.Bool("sim-only", false, "skip the native host measurement")
	flag.Parse()

	cal, err := busaware.Calibrate(busaware.ExperimentOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	t := report.NewTable("Simulated calibration (paper machine)",
		"Quantity", "Simulated", "Paper")
	t.AddRowf("Sustained rate (trans/us)", float64(cal.SustainedRate), "29.5")
	t.AddRowf("Sustained bandwidth (MB/s)", cal.SustainedMBps, "1797")
	t.AddRowf("Bytes/transaction", fmt.Sprint(cal.BytesPerTransaction), "~64")
	fmt.Println(t.String())

	if *skipNative {
		return
	}
	n := report.NewTable("Native host STREAM (for re-basing the simulator on this machine)",
		"Kernel", "MB/s", "Equivalent trans/us")
	for _, k := range []mem.StreamKernel{mem.StreamCopy, mem.StreamScale, mem.StreamAdd, mem.StreamTriad} {
		res := mem.RunNative(k, *elems, *iters)
		n.AddRowf(k.String(), res.MBPerSec, float64(res.TransPerUs))
	}
	fmt.Println(n.String())
	fmt.Println("To re-base the simulator, set units.SustainedBusRate, the one capacity both the bus model and sched.New read, to the native Triad trans/us figure.")
}
