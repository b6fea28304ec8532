// Capacityplan: use the simulation substrate directly to answer the
// capacity question behind the paper's motivation (Figures 1-3): how does
// each vision workload scale as a GPU server admits more concurrent
// instances, and where does co-location stop paying off versus queueing?
package main

import (
	"fmt"
	"log"

	"mapc/internal/cpusim"
	"mapc/internal/gpusim"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

const maxInstances = 4

func main() {
	log.SetFlags(0)
	log.SetPrefix("capacityplan: ")

	gcfg := gpusim.DefaultConfig()
	ccfg := cpusim.DefaultConfig()

	fmt.Println("GPU throughput (jobs/sec) vs. admitted concurrent instances, batch 40:")
	fmt.Printf("%-9s", "bench")
	for n := 1; n <= maxInstances; n++ {
		fmt.Printf("  n=%d      ", n)
	}
	fmt.Println("  best")
	for _, b := range vision.All() {
		res, err := vision.Run(b, 40, 42)
		if err != nil {
			log.Fatal(err)
		}
		w := res.Workload
		fmt.Printf("%-9s", b.Name())
		bestN, bestTput := 1, 0.0
		for n := 1; n <= maxInstances; n++ {
			ws := make([]*trace.Workload, n)
			for i := range ws {
				ws[i] = w
			}
			rr, err := gpusim.RunMemo(gcfg, nil, ws)
			if err != nil {
				log.Fatal(err)
			}
			// Throughput: n jobs complete by the bag makespan.
			tput := float64(n) / gpusim.BagTime(rr)
			fmt.Printf("  %8.1f", tput)
			if tput > bestTput {
				bestTput, bestN = tput, n
			}
		}
		fmt.Printf("  n=%d\n", bestN)
	}

	// Where does the GPU stop beating the CPU under concurrency? (Fig 3.)
	fmt.Println("\nGPU/CPU performance ratio at 1 and 4 instances:")
	for _, b := range vision.All() {
		res, err := vision.Run(b, 40, 42)
		if err != nil {
			log.Fatal(err)
		}
		w := res.Workload
		ratio := func(n int) float64 {
			ws := make([]*trace.Workload, n)
			apps := make([]cpusim.App, n)
			for i := range ws {
				ws[i] = w
				apps[i] = cpusim.App{Workload: w, Threads: 16}
			}
			gr, err := gpusim.RunMemo(gcfg, nil, ws)
			if err != nil {
				log.Fatal(err)
			}
			cr, err := cpusim.RunMemo(ccfg, nil, apps)
			if err != nil {
				log.Fatal(err)
			}
			return cr[0].TimeSec / gr[0].TimeSec
		}
		r1, r4 := ratio(1), ratio(maxInstances)
		verdict := "GPU wins throughout"
		switch {
		case r1 < 1 && r4 < 1:
			verdict = "CPU wins throughout"
		case r1 >= 1 && r4 < 1:
			verdict = "GPU wins alone, loses under concurrency"
		}
		fmt.Printf("  %-9s 1-inst %5.2f   %d-inst %5.2f   %s\n",
			b.Name(), r1, maxInstances, r4, verdict)
	}
}
