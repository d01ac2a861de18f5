package serving_test

import (
	"testing"

	"additivity/internal/analysis/analysistest"
	"additivity/internal/analysis/passes/serving"
)

func TestLockRule(t *testing.T) {
	analysistest.Run(t, "testdata/src/servingfix", serving.Analyzer)
}

func TestContextRule(t *testing.T) {
	analysistest.Run(t, "testdata/src/servingctxfix", serving.Analyzer)
}
