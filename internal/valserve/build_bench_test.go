package valserve

import (
	"fmt"
	"testing"

	"fedshap"
)

// BenchmarkBuildProblem measures one problem build (data synthesis, the
// client partition, the model factory) at the request shapes of the
// benchmark's fleet-mlp and service-mixed workloads — what a job pays on
// the daemon when it first trains a coalition there, and every fleet
// worker pays once per spec.
func BenchmarkBuildProblem(b *testing.B) {
	for _, req := range []fedshap.JobRequest{
		{Data: "femnist", Model: "mlp", N: 10, Scale: "small"},
		{Data: "femnist", Model: "logreg", N: 8, Scale: "tiny"},
	} {
		Normalize(&req)
		b.Run(fmt.Sprintf("%s/%s/n=%d/%s", req.Data, req.Model, req.N, req.Scale), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := BuildProblem(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
