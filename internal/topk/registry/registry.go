// Package registry maps algorithm names to operator constructors — the one
// table behind every shard's attach path, in-process or in a wire shard
// server (AttachSnapshot). A remote shard must instantiate *exactly* the
// operator the coordinator would have run in-process (the federation
// layer's identical-answer guarantee assumes the same protocol executes on
// both sides of the socket), so the name → operator mapping lives here
// once instead of being duplicated per entry point.
package registry

import (
	"fmt"

	"kspot/internal/engine"
	"kspot/internal/query"
	"kspot/internal/topk"
	"kspot/internal/topk/central"
	"kspot/internal/topk/fila"
	"kspot/internal/topk/mint"
	"kspot/internal/topk/naive"
	"kspot/internal/topk/tag"
	"kspot/internal/topk/tja"
	"kspot/internal/topk/tput"
	"kspot/internal/trace"
)

// Snapshot instantiates the snapshot operator for an algorithm name. The
// empty name follows the paper's router default (MINT).
func Snapshot(name string) (topk.SnapshotOperator, error) {
	switch name {
	case "", "mint":
		return mint.New(), nil
	case "tag":
		return tag.New(), nil
	case "naive":
		return naive.New(), nil
	case "central":
		return central.NewSnapshot(), nil
	case "fila":
		return fila.New(), nil
	default:
		return nil, fmt.Errorf("topk: %q is not a snapshot algorithm", name)
	}
}

// Historic instantiates the historic operator for an algorithm name. The
// empty name follows the paper's router default (TJA).
func Historic(name string) (topk.HistoricOperator, error) {
	switch name {
	case "", "tja":
		return tja.New(), nil
	case "tput":
		return tput.New(), nil
	case "central":
		return central.NewHistoric(), nil
	default:
		return nil, fmt.Errorf("topk: %q is not a historic algorithm", name)
	}
}

// AttachSnapshot is the engine.Attacher every production shard uses: it
// plans the attachment's SQL, instantiates the snapshot operator (basic
// queries always run TAG) and attaches it to tp. GROUP BY ... WITH HISTORY
// queries filter locally first (§III-B): each node's reading is the
// aggregate of its buffered window ending at the current epoch, derived
// from src. The shard re-derives everything from the SQL, so coordinator
// and shard can never disagree about what a query means.
func AttachSnapshot(tp engine.Transport, src trace.Source, a engine.Attachment) (engine.EpochRunner, trace.Source, error) {
	plan, err := query.PlanText(a.SQL, query.DefaultSchema())
	if err != nil {
		return nil, nil, err
	}
	if plan.Kind == query.PlanHistoricTopK {
		return nil, nil, fmt.Errorf("topk: historic query %q executes via the historic round, not attach", a.SQL)
	}
	algo := a.Algo
	if plan.Kind == query.PlanBasic {
		algo = "tag"
	}
	op, err := Snapshot(algo)
	if err != nil {
		return nil, nil, err
	}
	if err := op.Attach(tp, plan.Snapshot); err != nil {
		return nil, nil, err
	}
	var derived trace.Source
	if plan.Kind == query.PlanHistoricGroupTopK {
		derived = trace.WindowAgg(src, plan.History, plan.Snapshot.Agg)
	}
	return op, derived, nil
}
