// Package runtime closes the loop between plan and execution. The solver's
// probabilistic guarantee — P(makespan ≤ D) ≥ p under the calibrated
// histograms — is only as good as the calibration: once I/O or network
// performance drifts from what was measured, an open-loop execution silently
// loses the guarantee. This package provides the event-driven execution
// monitor and adaptive replanner the production WMS literature calls for:
// a Monitor consumes the simulator's typed execution events, conditions the
// calibrated per-task forecasts on observed progress (elapsed running time
// and a drift factor learned from realized durations), re-evaluates the
// violation probability of the *remaining* DAG with the probir Monte-Carlo
// kernel on an internal/device, and — when that probability crosses a
// configurable risk threshold — triggers an incremental replan: a
// warm-started opt search over the unfinished tasks only, with spent cost
// and elapsed time folded into the constraints. Accepted replans are applied
// to the running execution through the simulator's Controller revision hook.
package runtime

import (
	"context"

	"deco/internal/device"
	"deco/internal/opt"
)

// Options configures the monitor and replanner.
type Options struct {
	// Risk is the violation-probability threshold: when the monitor's
	// estimate of P(deadline or budget violated) for the remaining DAG
	// exceeds it, a replan triggers (default 0.1).
	Risk float64
	// Iters is the Monte-Carlo worlds per risk evaluation and per replan
	// state evaluation (default 200).
	Iters int
	// ReplanBudget bounds state evaluations per incremental replan
	// (default 400).
	ReplanBudget int
	// MaxReplans bounds replans per run (default 3; negative disables
	// replanning — the monitor still observes and streams events).
	MaxReplans int
	// Cooldown is how many task completions must be observed after a replan
	// before the next may fire (default 1).
	Cooldown int
	// Seed makes monitoring decisions reproducible: each risk evaluation
	// draws its worlds from its own decision base, derived from Seed, and a
	// replan search it triggers evaluates every candidate over those same
	// worlds.
	Seed int64
	// Device runs Monte-Carlo worlds (default device.TwoLevel{MaxThreads: 1}:
	// states in parallel, each state's worlds on one worker).
	Device device.Device
	// Ctx cancels replan searches; nil means context.Background().
	Ctx context.Context
	// Sink, when set, receives every StreamEvent as it is appended to the
	// monitor's log (the decod NDJSON stream hangs off this).
	Sink func(StreamEvent)
	// Cache, when set, is the shared evaluation cache replan searches
	// consult (see opt.EvalCache); replans fingerprint their residual
	// snapshot, so entries from distinct snapshots never collide.
	Cache *opt.EvalCache
}

func (o *Options) fillDefaults() {
	if o.Risk <= 0 {
		o.Risk = 0.1
	}
	if o.Iters <= 0 {
		o.Iters = 200
	}
	if o.ReplanBudget <= 0 {
		o.ReplanBudget = 400
	}
	if o.MaxReplans == 0 {
		o.MaxReplans = 3
	} else if o.MaxReplans < 0 {
		o.MaxReplans = 0
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 1
	}
	if o.Device == nil {
		o.Device = device.TwoLevel{MaxThreads: 1}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
}

// ReplanEvent details one accepted replan.
type ReplanEvent struct {
	// Changed is how many unstarted tasks moved to a different type.
	Changed int `json:"changed"`
	// RiskBefore is the violation probability that triggered the replan.
	RiskBefore float64 `json:"risk_before"`
	// Assignments maps the changed tasks to their new instance type.
	Assignments map[string]string `json:"assignments,omitempty"`
}

// StreamEvent is one entry of the monitor's event log — what decod streams
// as NDJSON from /v1/runs/{id}/events. Kinds: instance_acquired,
// task_start, task_finish, instance_revoked, risk, replan, done.
type StreamEvent struct {
	Seq  int     `json:"seq"`
	Time float64 `json:"t"`
	Kind string  `json:"kind"`
	Task string  `json:"task,omitempty"`
	Slot int     `json:"slot,omitempty"`
	Type string  `json:"type,omitempty"`
	// Duration is the realized execution time (task_finish).
	Duration float64 `json:"duration,omitempty"`
	// Forecast is the calibrated mean duration for the type the task ran on
	// (task_finish) — the drift signal in the raw.
	Forecast float64 `json:"forecast,omitempty"`
	// AccruedCost is the cost committed so far (task_finish).
	AccruedCost float64 `json:"accrued_cost,omitempty"`
	// Risk is the estimated violation probability of the remaining DAG
	// (risk, replan).
	Risk float64 `json:"risk,omitempty"`
	// Drift is the learned realized/forecast duration ratio (risk).
	Drift float64 `json:"drift,omitempty"`
	// Replan details an accepted replan (replan).
	Replan *ReplanEvent `json:"replan,omitempty"`
	// Makespan/TotalCost/DeadlineMet summarize the finished run (done).
	Makespan    float64 `json:"makespan,omitempty"`
	TotalCost   float64 `json:"total_cost,omitempty"`
	DeadlineMet *bool   `json:"deadline_met,omitempty"`
}

// Report summarizes a monitored execution.
type Report struct {
	Replans int `json:"replans"`
	// Revocations counts spot instances the market reclaimed during the run;
	// Recoveries counts the forced replans that moved the orphaned sub-DAG
	// onto on-demand capacity in response (they do not count against
	// MaxReplans).
	Revocations int `json:"revocations,omitempty"`
	Recoveries  int `json:"recoveries,omitempty"`
	// RiskMax is the highest violation probability observed.
	RiskMax float64 `json:"risk_max"`
	// Drift is the final realized/forecast duration ratio.
	Drift float64 `json:"drift"`
	// FinalConfig maps every task to the instance type it ran (or was last
	// planned to run) on.
	FinalConfig map[string]string `json:"final_config"`
	// Events is the full monitor log.
	Events []StreamEvent `json:"events"`
	// RiskWorldsRun is the Monte-Carlo worlds the monitor's risk
	// re-evaluations sampled: every world of every risk evaluation.
	RiskWorldsRun int64 `json:"risk_worlds_run,omitempty"`

	Makespan        float64 `json:"makespan,omitempty"`
	TotalCost       float64 `json:"total_cost,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	DeadlineMet     *bool   `json:"deadline_met,omitempty"`
	// Error reports a monitoring failure (the run continued open-loop).
	Error string `json:"error,omitempty"`
}
