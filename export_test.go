package gapplydb

import "gapplydb/internal/exec"

// ReferenceQuery compiles query exactly as Query does — same options,
// same plan cache — and evaluates the plan with the reference
// interpreter (exec.Reference) instead of the execution engine. The
// differential tests compare the engine against it; execution options
// such as the degree of parallelism or a budget do not apply to it.
func ReferenceQuery(db *Database, query string, options ...QueryOption) (*Result, error) {
	c, _, err := db.compile(query, makeConfig(options))
	if err != nil {
		return nil, err
	}
	res, err := exec.Reference(c.plan, db.cat)
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}
