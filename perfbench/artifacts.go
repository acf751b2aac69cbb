package main

import (
	"fmt"

	"smartconf/internal/core"
	"smartconf/internal/experiments"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/study"
)

// artifacts renders all 22 tables and figures of the paper's evaluation
// through the exported experiments and study builders, with a cold run cache
// and one engine worker. Its scenarios use the paper's fixed seeds, so it
// ignores --seed. Set-up clears the run cache and synthesizes the nine
// exported profiling campaigns; the measured phase renders every artifact.

// artifactWorkers is 1. On a 2-vCPU VM shared with other tenants, 2 workers
// made the wall time also measure how much of the second CPU the tenants left
// free: over ten 40 s runs the interquartile range of wall_s was 21 % of its
// median, against 10 % for cpu_s.
const artifactWorkers = 1

var artifactOrder = []string{
	"table2", "table3", "table4", "table5",
	"table6", "fig5", "fig6", "fig7", "fig8", "table7",
	"abl-pole", "abl-margin", "abl-interact", "abl-adaptive", "abl-profiling", "robustness", "abl-aimd", "ext-sla", "ext-dist",
	"llmkv", "chaos", "fleet",
}

var artifactBuilders = map[string]func() (string, error){
	"table2": func() (string, error) { return study.BuildTable2().Render(), nil },
	"table3": func() (string, error) { return study.BuildTable3().Render(), nil },
	"table4": func() (string, error) { return study.BuildTable4().Render(), nil },
	"table5": func() (string, error) { return study.BuildTable5().Render(), nil },
	"table6": func() (string, error) { return experiments.RenderTable6(), nil },
	"table7": experiments.RenderTable7,
	"fig5": func() (string, error) {
		return experiments.RenderFigure5(experiments.BuildFigure5()), nil
	},
	"fig6": func() (string, error) {
		return experiments.RenderFigure6(experiments.BuildFigure6()), nil
	},
	"fig7": func() (string, error) {
		return experiments.RenderFigure7(experiments.BuildFigure7()), nil
	},
	"fig8": func() (string, error) {
		return experiments.RenderFigure8(experiments.BuildFigure8()), nil
	},
	"abl-pole": func() (string, error) {
		return experiments.RenderAblationPoles(experiments.AblationPoles()), nil
	},
	"abl-margin": func() (string, error) {
		return experiments.RenderAblationMargins(experiments.AblationVirtualGoalMargin()), nil
	},
	"abl-interact": func() (string, error) {
		return experiments.RenderAblationInteraction(experiments.AblationInteractionFactor()), nil
	},
	"abl-adaptive": func() (string, error) {
		return experiments.RenderAblationAdaptive(experiments.AblationAdaptiveModel()), nil
	},
	"abl-profiling": func() (string, error) {
		return experiments.RenderAblationProfilingDepth(experiments.AblationProfilingDepth()), nil
	},
	"robustness": func() (string, error) {
		return experiments.RenderRobustness(experiments.RunRobustnessSweep()), nil
	},
	"abl-aimd": func() (string, error) {
		return experiments.RenderBackendComparison(experiments.AblationBackendAIMD()), nil
	},
	"ext-sla": func() (string, error) {
		return experiments.RenderSLA(experiments.BuildSLAComparison()), nil
	},
	"ext-dist": func() (string, error) {
		return experiments.RenderDistributed(experiments.RunDistributedHB3813(4)), nil
	},
	"llmkv": func() (string, error) {
		return experiments.RenderFigureLLMKV(experiments.BuildFigureLLMKV()), nil
	},
	"chaos": func() (string, error) {
		return experiments.RenderChaos(experiments.ChaosMatrix(experiments.ChaosSeed)), nil
	},
	"fleet": func() (string, error) {
		return experiments.RenderFleet(experiments.BuildFleetComparison()), nil
	},
}

// artifactProfiles are the exported profiling campaigns, run at set-up.
var artifactProfiles = []func() core.Profile{
	experiments.ProfileCA6059, experiments.ProfileFleetMemory, experiments.ProfileHB2149,
	experiments.ProfileHB3813, experiments.ProfileHB6728, experiments.ProfileHD4995,
	experiments.ProfileLLMKV, experiments.ProfileLLMKVTTFT, experiments.ProfileMR2820,
}

type artifacts struct {
	tr                   *tracer
	probes               []*probe
	execSetup, hitsSetup uint64
	d                    digest
	failed               []string
}

func newArtifacts(_ int64, tr *tracer) (bench, error) {
	engine.SetWorkers(artifactWorkers)
	experiments.ResetRunCache()
	for _, profile := range artifactProfiles {
		profile()
	}
	a := &artifacts{tr: tr, d: newDigest()}
	a.execSetup, a.hitsSetup = experiments.RunCacheStats()
	for _, id := range artifactOrder {
		a.probes = append(a.probes, tr.probe(spanArtifact+id))
	}
	return a, nil
}

func (a *artifacts) run() {
	for i, id := range artifactOrder {
		a.tr.begin(a.probes[i])
		out, err := artifactBuilders[id]()
		a.tr.end()
		if err != nil || out == "" {
			a.failed = append(a.failed, fmt.Sprintf("%s: error %v, %d bytes", id, err, len(out)))
		}
		a.d.add(id, out)
	}
}

// finish checks that every artifact rendered and that the measured phase
// simulated: a run served from the cache would measure nothing. The digest
// covers the rendered bytes and the simulation count, so every repetition
// must render byte-identical output from the same number of simulations.
func (a *artifacts) finish() (rep, error) {
	if len(a.failed) > 0 {
		return rep{}, fmt.Errorf("artifacts failed: %v", a.failed)
	}
	exec, hits := experiments.RunCacheStats()
	sims := exec - a.execSetup
	if sims == 0 {
		return rep{}, fmt.Errorf("rendering ran no simulation: the run cache was warm")
	}
	a.d.add("run-cache", a.execSetup, sims, hits-a.hitsSetup)
	return rep{
		ops:     int64(len(artifactOrder)),
		digest:  a.d.sum(),
		outcome: map[string]float64{},
		counts: map[string]float64{
			"experiments.sims":       float64(sims),
			"experiments.cache_hits": float64(hits - a.hitsSetup),
		},
	}, nil
}
