package pedro

import (
	"testing"

	"qurator/internal/proteomics"
)

func sampleExperiment() *Experiment {
	return &Experiment{
		ID:          "EXP001",
		Description: "synthetic PMF run",
		Spots: []Spot{
			{ID: "spot1", PeakList: proteomics.PeakList{SpotID: "spot1", Peaks: []proteomics.Peak{{MZ: 1000}}}},
			{ID: "spot2", PeakList: proteomics.PeakList{SpotID: "spot2", Peaks: []proteomics.Peak{{MZ: 2000}, {MZ: 2100}}}},
		},
	}
}

func TestPutGetExperiment(t *testing.T) {
	db := New()
	if err := db.PutExperiment(sampleExperiment()); err != nil {
		t.Fatal(err)
	}
	e, ok := db.Experiment("EXP001")
	if !ok {
		t.Fatal("experiment not found")
	}
	if e.Description != "synthetic PMF run" || len(e.Spots) != 2 {
		t.Errorf("experiment = %+v", e)
	}
	if _, ok := db.Experiment("ghost"); ok {
		t.Error("missing experiment should not be found")
	}
}

func TestPutExperimentValidation(t *testing.T) {
	db := New()
	if err := db.PutExperiment(nil); err == nil {
		t.Error("nil experiment should fail")
	}
	if err := db.PutExperiment(&Experiment{}); err == nil {
		t.Error("empty ID should fail")
	}
	if err := db.PutExperiment(&Experiment{ID: "E", Spots: []Spot{{ID: ""}}}); err == nil {
		t.Error("spot without ID should fail")
	}
	if err := db.PutExperiment(&Experiment{ID: "E", Spots: []Spot{{ID: "a"}, {ID: "a"}}}); err == nil {
		t.Error("duplicate spot IDs should fail")
	}
}

func TestPeakListsInSpotOrder(t *testing.T) {
	db := New()
	db.PutExperiment(sampleExperiment())
	pls, err := db.PeakLists("EXP001")
	if err != nil {
		t.Fatal(err)
	}
	if len(pls) != 2 || pls[0].SpotID != "spot1" || pls[1].SpotID != "spot2" {
		t.Errorf("PeakLists = %v", pls)
	}
	if _, err := db.PeakLists("ghost"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestSpotLookup(t *testing.T) {
	db := New()
	db.PutExperiment(sampleExperiment())
	s, ok := db.Spot("EXP001", "spot2")
	if !ok || len(s.PeakList.Peaks) != 2 {
		t.Errorf("Spot = %+v, %v", s, ok)
	}
	if _, ok := db.Spot("EXP001", "ghost"); ok {
		t.Error("missing spot should not be found")
	}
	if _, ok := db.Spot("ghost", "spot1"); ok {
		t.Error("missing experiment should not be found")
	}
}

func TestExperimentIsolation(t *testing.T) {
	// Mutating the retrieved copy must not change the store.
	db := New()
	db.PutExperiment(sampleExperiment())
	e, _ := db.Experiment("EXP001")
	e.Spots[0].ID = "hacked"
	again, _ := db.Experiment("EXP001")
	if again.Spots[0].ID != "spot1" {
		t.Error("store leaked internal state")
	}
	// Mutating the input after Put must not change the store either.
	src := sampleExperiment()
	src.ID = "EXP002"
	db.PutExperiment(src)
	src.Spots[0].ID = "hacked"
	stored, _ := db.Experiment("EXP002")
	if stored.Spots[0].ID != "spot1" {
		t.Error("store aliased caller's slice")
	}
}
