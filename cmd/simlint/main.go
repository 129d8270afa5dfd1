// Command simlint runs the repository's two lint rules, units (unit
// conversions) and exhaustive (enum switches), as a `go vet` backend:
//
//	go build -o bin/simlint ./cmd/simlint
//	go vet -vettool=bin/simlint ./...
//
// See docs/static-analysis.md for the rules and the audited-suppression
// convention (//simlint:<rule>).
package main

import (
	"triplea/internal/lint/analyzers"
	"triplea/internal/lint/unitchecker"
)

func main() {
	unitchecker.Main(analyzers.All()...)
}
