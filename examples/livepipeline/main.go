// Live pipeline: runs AdaVP on real goroutines — a detector thread and a
// tracker thread paced by a capture clock and joined by locks and events,
// the §IV-B/§V threading structure — with all component latencies emulated
// at 1/10th real time. Compare with the deterministic
// virtual-clock engine used by the experiments.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"adavp"
)

func main() {
	v := adavp.GenerateVideo(adavp.ScenarioCityStreet, 21, 600) // 20 s of video
	fmt.Printf("video: %s, %d frames (%.0f s)\n", v.Name, v.NumFrames(), adavp.VideoDuration(v).Seconds())

	const timeScale = 0.1 // run 10x faster than real time
	fmt.Printf("running the live detector/tracker-thread pipeline at %.0fx speed...\n", 1/timeScale)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	start := time.Now()
	live, err := adavp.RunLive(ctx, v, adavp.Options{Policy: adavp.PolicyAdaVP, Seed: 21}, timeScale)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("wall time: %.1f s for %.0f s of video\n", elapsed.Seconds(), adavp.VideoDuration(v).Seconds())
	fmt.Printf("live accuracy: %.3f, mean F1: %.3f\n", live.Accuracy, live.MeanF1)

	// The same workload on the deterministic virtual clock.
	simRes, err := adavp.Run(v, adavp.Options{Policy: adavp.PolicyAdaVP, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual-clock accuracy: %.3f, mean F1: %.3f\n", simRes.Accuracy, simRes.MeanF1)
	fmt.Println("(the two engines share detectors and trackers; scheduling differs only")
	fmt.Println(" by OS timer noise, so the metrics should be in the same ballpark)")
}
