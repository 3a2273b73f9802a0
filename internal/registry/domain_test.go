package registry

import (
	"reflect"
	"testing"

	"autovalidate/internal/domain"
)

func TestPutDomainRoundTrip(t *testing.T) {
	r := New()
	det := domain.Detection{
		Name: "luhn", Family: "checksum",
		Confidence: 0.984, Sampled: 256, Valid: 252,
	}
	vocabDet := domain.Detection{
		Name: domain.VocabularyName, Family: "vocabulary",
		Confidence: 1, Sampled: 120, Valid: 120,
		Vocab: []string{"blue", "green", "red"},
	}
	if _, err := r.PutDomain("cards", testRule(t, "<digit>{16}"), testOptions(), 1, det); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutDomain("colors", testRule(t, "<letter>+"), testOptions(), 1, vocabDet); err != nil {
		t.Fatal(err)
	}
	// A zero Detection stays zero.
	if _, err := r.PutDomain("plain", testRule(t, "<digit>+"), testOptions(), 1, domain.Detection{}); err != nil {
		t.Fatal(err)
	}

	loaded := saveLoad(t, r)
	for name, want := range map[string]domain.Detection{
		"cards": det, "colors": vocabDet, "plain": {},
	} {
		got, ok := loaded.Get(name)
		if !ok {
			t.Fatalf("%s missing after load", name)
		}
		if !reflect.DeepEqual(got.Domain, want) {
			t.Errorf("%s domain round-trip:\n got %+v\nwant %+v", name, got.Domain, want)
		}
	}
}

// TestDomainFieldBackwardReadable: a registry whose stream versions
// carry no domain (the pre-domain AVREG1 layout — the field is omitted
// from the JSON entirely, not written as a zero value) must load with a
// zero Detection. Saving a zero Detection produces exactly that layout.
func TestDomainFieldBackwardReadable(t *testing.T) {
	r := New()
	if _, err := r.PutDomain("legacy", testRule(t, "<digit>{4}"), testOptions(), 3, domain.Detection{}); err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, r)
	got, ok := loaded.Get("legacy")
	if !ok {
		t.Fatal("legacy stream missing after load")
	}
	if got.Domain.Name != "" || got.Domain.Vocab != nil {
		t.Errorf("domainless section loaded as %+v, want zero Detection", got.Domain)
	}
}
