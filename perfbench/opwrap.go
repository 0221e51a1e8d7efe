package main

import (
	"sync/atomic"
	"time"

	"predata/internal/staging"
)

// timedOp is the benchmark's timer around one operator instance (one
// staging rank, one dump). It times Map and Reduce and reports each
// Finalize return, which is where a dump's latency ends.
type timedOp struct {
	staging.Operator
	dump       int
	mapNs      atomic.Int64
	reduceNs   atomic.Int64
	onFinalize func(dump int)
}

func (t *timedOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	start := time.Now()
	err := t.Operator.Map(ctx, chunk)
	t.mapNs.Add(int64(time.Since(start)))
	return err
}

func (t *timedOp) Reduce(ctx *staging.Context, tag int, values []any) error {
	start := time.Now()
	err := t.Operator.Reduce(ctx, tag, values)
	t.reduceNs.Add(int64(time.Since(start)))
	return err
}

func (t *timedOp) Finalize(ctx *staging.Context) error {
	err := t.Operator.Finalize(ctx)
	if t.onFinalize != nil {
		t.onFinalize(t.dump)
	}
	return err
}

// optionalOp forwards staging.Optional. It is a named type because an
// embedded staging.Optional field would be called Optional and hide the
// method of the same name.
type optionalOp struct{ o staging.Optional }

func (x optionalOp) Optional() bool { return x.o.Optional() }

// wrapOp returns t (which must wrap op) extended with exactly the
// optional engine interfaces op implements. The engine discovers
// Combiner, Partitioner and Optional by type assertion, so a wrapper
// that dropped one would run a different program: a sort without its
// combiner and partitioner, or a histogram the shed ladder may not skip.
func wrapOp(op staging.Operator, t *timedOp) staging.Operator {
	c, isC := op.(staging.Combiner)
	p, isP := op.(staging.Partitioner)
	o, isO := op.(staging.Optional)
	opt := optionalOp{o}
	switch {
	case isC && isP && isO:
		return struct {
			*timedOp
			staging.Combiner
			staging.Partitioner
			optionalOp
		}{t, c, p, opt}
	case isC && isP:
		return struct {
			*timedOp
			staging.Combiner
			staging.Partitioner
		}{t, c, p}
	case isC && isO:
		return struct {
			*timedOp
			staging.Combiner
			optionalOp
		}{t, c, opt}
	case isP && isO:
		return struct {
			*timedOp
			staging.Partitioner
			optionalOp
		}{t, p, opt}
	case isC:
		return struct {
			*timedOp
			staging.Combiner
		}{t, c}
	case isP:
		return struct {
			*timedOp
			staging.Partitioner
		}{t, p}
	case isO:
		return struct {
			*timedOp
			optionalOp
		}{t, opt}
	default:
		return t
	}
}
