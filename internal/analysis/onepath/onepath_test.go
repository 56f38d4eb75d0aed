package onepath_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/onepath"
)

func TestOnepath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), onepath.Analyzer, "onepath")
}

// TestOnepathAdmissionHardDeny runs the analyzer over a golden package
// whose import path ends in internal/admission: every accrual call must be
// reported there, including the ones a normal package could sanction with
// annotations, suppression comments, test files, or the bill name.
func TestOnepathAdmissionHardDeny(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), onepath.Analyzer, "internal/admission")
}
