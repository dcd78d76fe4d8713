package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pinned.json holds, per workload, the digest of the simulated
// statistics of the default seed's first pass at full size ("default")
// and at the canary size every run replays ("canary"). The replay
// workloads digest the complete hierarchy statistics, prefetch,
// write-back and memory traffic included; jobs-mixed digests the
// sim.Results its job bodies carry. A change that only speeds the
// program up leaves both unchanged; a change to a simulated number fails
// the run. Regenerate an entry with
// -print-digests only when a change to the model is intended.
//
//go:embed pinned.json
var pinnedJSON []byte

type pin struct {
	Canary  string `json:"canary"`
	Default string `json:"default"`
}

func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return pins, nil
}
