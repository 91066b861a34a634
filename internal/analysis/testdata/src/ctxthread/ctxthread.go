// Package ctxthread is golden testdata for the context-threading
// analyzer.
package ctxthread

import "context"

func leaf(ctx context.Context) error { return ctx.Err() }

func threadedOK(ctx context.Context) error {
	return leaf(ctx)
}

func derivedOK(ctx context.Context) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return leaf(cctx)
}

func drops(ctx context.Context) error {
	return leaf(context.Background()) // want "already receives a ctx"
}

func todoDrops(ctx context.Context) error {
	return leaf(context.TODO()) // want "already receives a ctx"
}

func fresh() error {
	ctx := context.Background() // want "outside package main"
	return leaf(ctx)
}

func allowedFallback(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background() //fedvallint:allow(ctxthread) nil-ctx compat fallback
	}
	return leaf(ctx)
}

func nilCtx() error {
	return leaf(nil) // want "nil passed for a context.Context"
}

func closureDrops(ctx context.Context) func() error {
	return func() error {
		return leaf(context.Background()) // want "already receives a ctx"
	}
}

type svc struct{}

func (s *svc) RunCtx(ctx context.Context, n int, name string) error { return leaf(ctx) }

// Run is a context-free twin: it forwards Background and its own
// parameters, in order, to RunCtx.
func (s *svc) Run(n int, name string) error {
	return s.RunCtx(context.Background(), n, name)
}

func (s *svc) WalkCtx(ctx context.Context, n int, name string) error { return leaf(ctx) }

// Walk is not: it changes an argument on the way.
func (s *svc) Walk(n int, name string) error {
	return s.WalkCtx(context.Background(), n+1, name) // want "outside package main"
}
