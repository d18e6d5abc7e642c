package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV reads a relation with the given name and arity from
// comma-separated integer rows. Blank lines and lines starting with '#' are
// skipped; every other line must have exactly arity fields.
func ReadCSV(rd io.Reader, name string, arity int) (*Relation, error) {
	rel := NewRelation(name, arity)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	tuple := make([]int64, arity)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != arity {
			return nil, fmt.Errorf("data: line %d has %d fields, want %d", lineNo, len(fields), arity)
		}
		for c, f := range fields {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d field %d: %v", lineNo, c+1, err)
			}
			tuple[c] = v
		}
		rel.AppendTuple(tuple)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rel, nil
}
