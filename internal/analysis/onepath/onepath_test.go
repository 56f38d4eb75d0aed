package onepath_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/onepath"
)

func TestOnepath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), onepath.Analyzer, "onepath")
}

// TestOnepathSanction runs the analyzer over a golden package whose import
// path ends in internal/api: only (*Server).bill may accrue there — not a
// free function of that name, not another type's method.
func TestOnepathSanction(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), onepath.Analyzer, "internal/api")
}

// TestOnepathAdmissionHardDeny runs the analyzer over a golden package
// whose import path ends in internal/admission: every accrual call must be
// reported there, including the ones a normal package could sanction with
// annotations, suppression comments, test files, or the bill name.
func TestOnepathAdmissionHardDeny(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), onepath.Analyzer, "internal/admission")
}
