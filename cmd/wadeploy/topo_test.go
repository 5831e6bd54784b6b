package main

import "testing"

func TestRunTopoTiny(t *testing.T) {
	golden(t, "topo-petstore", tiny("-edges", "2,4", "-partitions", "4", "topo")...)
	golden(t, "topo-rubis", tiny("-app", "rubis", "-config", "query-caching", "-edges", "2", "-partitions", "0", "topo")...)
}

func TestRunTopoErrors(t *testing.T) {
	cases := [][]string{
		{"-edges", "0", "topo"},
		{"-edges", "abc", "topo"},
		{"-edges", "", "topo"},
		{"-partitions", "-1", "topo"},
		{"-app", "nope", "topo"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestParseEdgeCounts(t *testing.T) {
	got, err := parseEdgeCounts(" 2, 8 ,128")
	if err != nil || len(got) != 3 || got[0] != 2 || got[1] != 8 || got[2] != 128 {
		t.Fatalf("parseEdgeCounts = %v, %v", got, err)
	}
}
