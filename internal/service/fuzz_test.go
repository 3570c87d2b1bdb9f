package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"deco/internal/dax"
	"deco/internal/wfgen"
)

// FuzzSubmitRequest feeds arbitrary bytes to the job submission path: the
// body is decoded as the submit handler decodes it (unknown fields
// rejected), then normalized and keyed on one Manager. Seeds are the
// programs under programs/ as program-mode bodies, the named synthetic
// workflows, an inline DAX written by dax.Write, and malformed bodies.
// normalize must never panic; it returns either an error or a workflow that
// is non-nil exactly in workflow/DAX mode; the same request always gets the
// same job key, and the key does not change with the tenant.
//
// Run it with: go test -run '^$' -fuzz FuzzSubmitRequest -fuzztime 20s -fuzzminimizetime 5s ./internal/service/
func FuzzSubmitRequest(f *testing.F) {
	add := func(req SubmitRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.wlog"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed programs found under programs/")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		add(SubmitRequest{Program: string(src)})
	}
	deadline := &PctBound{Percentile: 0.9, Value: 40000}
	for _, name := range []string{"montage", "montage4", "ligo", "epigenomics", "cybershake", "pipeline", "bag"} {
		add(SubmitRequest{Workflow: name, Deadline: deadline})
	}
	add(SubmitRequest{Workflow: "montage", Budget: &PctBound{Percentile: -1, Value: 2}, Goal: "makespan", Tenant: "t1"})
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(7)))
	if err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := dax.Write(&doc, w); err != nil {
		f.Fatal(err)
	}
	add(SubmitRequest{DAX: doc.String(), Deadline: deadline})
	for _, body := range []string{
		``, `{`, `null`, `[]`, `{"workflow":1}`, `{"unknown":true}`, `{"program":""}`,
		`{"workflow":"montage","dax":"<adag/>","deadline":{"value":1}}`,
		`{"workflow":"montage","deadline":{"percentile":0.9,"value":-1}}`,
		`{"workflow":"montage","deadline":{"value":1},"goal":"speed"}`,
		`{"workflow":"nosuch","deadline":{"value":1}}`,
		`{"program":"minimize C in totalcost(C).","deadline":{"value":1}}`,
		`{"workflow":"pipeline","budget":{"value":1},"iters":-1}`,
		`{"workflow":"pipeline","budget":{"value":1},"iters":10001}`,
		`{"workflow":"pipeline","budget":{"value":1},"threads":2}`,
	} {
		f.Add([]byte(body))
	}

	cfg := Config{}
	cfg.fillDefaults()
	m := NewManager(cfg, NewCache(cfg.CacheCapacity), nil, NewMetrics())
	f.Cleanup(func() { m.Shutdown(context.Background()) })

	decode := func(body []byte) (SubmitRequest, error) {
		var req SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		return req, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err != nil {
			return
		}
		workflowMode := req.Workflow != "" || req.DAX != ""
		w, kind, err := m.normalize(&req)
		if err != nil {
			if w != nil {
				t.Fatalf("normalize returned a workflow with error %v", err)
			}
			return
		}
		if (w != nil) != workflowMode {
			t.Fatalf("normalize returned workflow %v in workflow/DAX mode %v", w != nil, workflowMode)
		}
		if kind != KindPlan && kind != KindEnsemble {
			t.Fatalf("normalize returned job kind %q", kind)
		}
		key := m.jobKey(&req, w)

		// The same request, decoded and normalized again, gets the same key;
		// so does the request from another tenant.
		for _, vary := range []bool{false, true} {
			again, err := decode(body)
			if err != nil {
				t.Fatalf("second decode failed: %v", err)
			}
			if vary {
				again.Tenant = "fuzz-other-tenant"
			}
			w2, _, err := m.normalize(&again)
			if err != nil {
				t.Fatalf("request accepted once, rejected on repeat (vary=%v): %v", vary, err)
			}
			if k := m.jobKey(&again, w2); k != key {
				t.Fatalf("job key changed (vary tenant %v): %s vs %s", vary, k, key)
			}
		}
	})
}
