// Package walrelease proves that every write-ahead journal handle
// reaches a Close on every path.
//
// The durability layer (internal/wal) hands out *Log handles from
// wal.Open. A handle holds an open file descriptor with a buffered
// writer in front of it: a path that drops the handle without Close
// leaks the descriptor and — worse — strands the tail of the journal
// in the buffer, so the records a crashed rank would need to rebuild
// from were never durable at all. Restart recovery then silently
// under-replays. The compiler cannot see any of this; the CFG +
// dataflow engine (internal/analysis/cfg, internal/analysis/dataflow)
// can.
//
// A path discharges the obligation by calling Close (directly or
// deferred) or by handing the handle off: returning it, storing it in
// a structure (the pipeline parks its journal in ServerConfig),
// passing it to a call, sending it on a channel, or capturing it in a
// closure (the pipeline's deferred shutdown closure). The error result
// paired with Open kills the obligation on the failure edge — Open
// returns a nil handle alongside a non-nil error. Close is idempotent,
// so double closes are not flagged. Appends, syncs, checkpoints and
// the stat accessors are benign: they use the handle without
// discharging it. Test files are exempt (fuzzers abandon torn
// journals deliberately).
package walrelease

import (
	"fmt"
	"go/ast"
	"go/types"

	"predata/internal/analysis"
	"predata/internal/analysis/dataflow"
)

// Analyzer is the walrelease pass.
var Analyzer = &analysis.Analyzer{
	Name: "walrelease",
	Doc: "flags write-ahead journal handles (wal.Open) not closed or " +
		"handed off on every path",
	Run: run,
}

const walPath = analysis.ModulePath + "/internal/wal"

var spec = &dataflow.Spec{
	Resource: "journal",
	Acquire: func(info *types.Info, e ast.Expr) (int, string, bool) {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return 0, "", false
		}
		if analysis.FuncIs(analysis.CalleeFunc(info, call), walPath, "Open") {
			return 0, "wal.Open", true
		}
		return 0, "", false
	},
	Release: func(info *types.Info, call *ast.CallExpr) bool {
		return analysis.MethodIs(analysis.CalleeFunc(info, call), walPath, "Log", "Close")
	},
	Benign: func(info *types.Info, call *ast.CallExpr) bool {
		fn := analysis.CalleeFunc(info, call)
		for _, name := range []string{
			"Append", "AppendChunk", "AppendRequest", "AppendCommit", "Sync",
			"WriteCheckpoint", "Records", "Bytes", "Wall", "Dir",
		} {
			if analysis.MethodIs(fn, walPath, "Log", name) {
				return true
			}
		}
		return false
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range dataflow.Check(pass, spec) {
		var msg string
		switch f.Kind {
		case dataflow.Leak:
			msg = fmt.Sprintf("journal from %s is not closed on every path; "+
				"buffered records are never durable and the descriptor leaks", f.Desc)
		case dataflow.LeakReassign:
			msg = fmt.Sprintf("journal from %s is overwritten while still open; "+
				"close it before rebinding", f.Desc)
		case dataflow.Discard:
			msg = fmt.Sprintf("result of %s is discarded; the journal can "+
				"never be flushed or closed", f.Desc)
		default:
			continue // Close is idempotent: double closes are fine
		}
		pass.Reportf(f.Pos, "%s", msg)
	}
	return nil
}
