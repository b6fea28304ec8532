// Heteroscheduling: the workload the paper's introduction motivates — an
// edge server receiving offloaded vision jobs must decide which pending
// pairs to co-schedule on its GPU. This example trains the predictor, then
// uses it to rank all candidate pairings of a job queue by predicted bag
// makespan and picks the pairing plan with the lowest total predicted time.
package main

import (
	"fmt"
	"log"
	"sort"

	"mapc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heteroscheduling: ")

	corpus, err := mapc.GenerateCorpus()
	if err != nil {
		log.Fatal(err)
	}
	predictor, err := mapc.Train(corpus, mapc.SchemeFull)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := mapc.NewGenerator(mapc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The pending job queue: six offloaded vision requests.
	queue := []mapc.Member{
		{Benchmark: "sift", Batch: 40},
		{Benchmark: "fast", Batch: 80},
		{Benchmark: "knn", Batch: 20},
		{Benchmark: "facedet", Batch: 40},
		{Benchmark: "surf", Batch: 20},
		{Benchmark: "hog", Batch: 80},
	}

	// Predict every pair's bag time.
	type pairing struct {
		i, j int
		pred float64
	}
	var pairs []pairing
	for i := 0; i < len(queue); i++ {
		for j := i + 1; j < len(queue); j++ {
			x, _, err := gen.BagFeatures([]mapc.Member{queue[i], queue[j]})
			if err != nil {
				log.Fatal(err)
			}
			p, err := predictor.PredictRaw(x)
			if err != nil {
				log.Fatal(err)
			}
			pairs = append(pairs, pairing{i, j, p})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].pred < pairs[b].pred })

	fmt.Println("candidate co-schedules, ranked by predicted GPU bag time:")
	for _, p := range pairs {
		fmt.Printf("  %-12v + %-12v -> %8.3f ms\n", queue[p.i], queue[p.j], p.pred*1e3)
	}

	// Greedy plan: repeatedly take the fastest pairing of unscheduled jobs.
	fmt.Println("\ngreedy pairing plan:")
	used := make([]bool, len(queue))
	var total float64
	for _, p := range pairs {
		if used[p.i] || used[p.j] {
			continue
		}
		used[p.i], used[p.j] = true, true
		total += p.pred

		// Validate the decision against the simulated ground truth.
		truth, err := gen.MeasureBag([]mapc.Member{queue[p.i], queue[p.j]})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  run %-12v with %-12v predicted %8.3f ms, simulated %8.3f ms\n",
			queue[p.i], queue[p.j], p.pred*1e3, truth.Y*1e3)
	}
	fmt.Printf("total predicted makespan of the plan: %.3f ms\n", total*1e3)
}
