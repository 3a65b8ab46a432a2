package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample std of this classic dataset is ~2.138.
	if math.Abs(s.Std-2.1380899) > 1e-6 {
		t.Errorf("std = %v", s.Std)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	if one := Summarize([]float64{3}); one.Std != 0 || one.Mean != 3 {
		t.Errorf("singleton summary = %+v", one)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty mean/median should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestMeanSeries(t *testing.T) {
	got := MeanSeries([][]float64{{1, 2, 3}, {3, 4, 5}})
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MeanSeries = %v", got)
			break
		}
	}
	if MeanSeries(nil) != nil {
		t.Error("empty MeanSeries should be nil")
	}
}

func TestMeanSeriesRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged input should panic")
		}
	}()
	MeanSeries([][]float64{{1}, {1, 2}})
}

func TestMaxTrueFraction(t *testing.T) {
	// Threshold at 0.37.
	got := MaxTrueFraction(1, 1e-6, func(x float64) bool { return x <= 0.37 })
	if math.Abs(got-0.37) > 1e-5 {
		t.Errorf("threshold = %v, want 0.37", got)
	}
	if MaxTrueFraction(1, 1e-6, func(x float64) bool { return false }) != 0 {
		t.Error("always-false should give 0")
	}
	if MaxTrueFraction(1, 1e-6, func(x float64) bool { return true }) != 1 {
		t.Error("always-true should give hi")
	}
	if MaxTrueFraction(0, 1e-6, func(x float64) bool { return true }) != 0 {
		t.Error("hi<=0 should give 0")
	}
}

func TestMaxTrueFractionMonotoneProperty(t *testing.T) {
	f := func(raw float64) bool {
		thr := math.Mod(math.Abs(raw), 1)
		got := MaxTrueFraction(1, 1e-7, func(x float64) bool { return x <= thr })
		return math.Abs(got-thr) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 30, 7)
	want := []float64{0, 5, 10, 15, 20, 25, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace = %v", got)
			break
		}
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n<2 should panic")
		}
	}()
	Linspace(0, 1, 1)
}
