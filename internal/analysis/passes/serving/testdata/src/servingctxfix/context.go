// Package servingctxfix is the serving pass's context-rule fixture: a
// want at each context.Background() or context.TODO() mint, and two
// clean functions that derive from the context they were given.
package servingctxfix

import (
	"context"
	"net/http"
	"time"
)

func execute(ctx context.Context, q string) error {
	_ = q
	return ctx.Err()
}

// handlerMints hands work a freshly minted root context while the
// request's own is one selector away.
func handlerMints(w http.ResponseWriter, r *http.Request) {
	_ = execute(context.Background(), "q") // want `serving: context\.Background\(\) detaches this work from request cancellation`
}

// handlerTaintFlow launders the mint through a variable and a timeout
// derivation; the mint is the finding.
func handlerTaintFlow(w http.ResponseWriter, r *http.Request) {
	base := context.Background() // want `serving: context\.Background\(\) detaches`
	ctx, cancel := context.WithTimeout(base, time.Second)
	defer cancel()
	_ = execute(ctx, "q")
}

// handlerReassigns mints and then overwrites with the request context.
func handlerReassigns(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want `serving: context\.Background\(\) detaches`
	ctx = r.Context()
	_ = execute(ctx, "q")
}

// helperBranchTaint detaches on one branch only.
func helperBranchTaint(ctx context.Context, fallback bool, q string) error {
	use := ctx
	if fallback {
		use = context.Background() // want `serving: context\.Background\(\) detaches`
	}
	return execute(use, q)
}

// todoUser reaches for TODO instead of threading a context.
func todoUser(q string) {
	_ = execute(context.TODO(), q) // want `serving: context\.TODO\(\) detaches`
}

// handlerClean derives from the request context. Clean.
func handlerClean(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), time.Second)
	defer cancel()
	_ = execute(ctx, "q")
}

// threaded derives from its own ctx parameter. Clean.
func threaded(ctx context.Context, q string) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	return execute(sub, q)
}
