package rsonpath

import (
	"bufio"
	"bytes"
	"context"
	"io"
)

// LineMatch describes the outcome of one newline-delimited record: either
// its matches, or the typed error that made the record unusable.
type LineMatch struct {
	// Line is the 1-based record number (empty lines are skipped but
	// counted).
	Line int
	// Record is the raw record bytes; valid only during the visit call.
	Record []byte
	// Offsets are the match offsets within Record, in document order. Like
	// Record, the slice is reused between records and is valid only during
	// the visit call; copy it to retain it.
	Offsets []int
	// Err is non-nil when the record could not be evaluated — typically a
	// *MalformedError (with offsets relative to the record) or a
	// *LimitError. The scan skips the bad record and continues with the
	// next one; matches emitted before the failure are not reported.
	Err error
	// Outcome reports how the record's supervised evaluation settled:
	// attempts taken, the engine that produced the result, and — when the
	// degradation ladder ran — the primary engine's fault. Valid only during
	// the visit call; copy the struct to retain it.
	Outcome *Outcome
}

// forEachLine drives the shared record loop of the lines family: fn is
// called with the 1-based line number and the whitespace-trimmed bytes of
// every non-empty record (empty lines are counted but skipped). A non-nil
// error from fn stops the scan and is returned verbatim; otherwise only a
// read error on r itself aborts the scan.
func forEachLine(r io.Reader, fn func(line int, record []byte) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	line := 0
	for {
		record, err := br.ReadBytes('\n')
		if len(record) == 0 && err == io.EOF {
			return nil
		}
		line++
		trimmed := bytes.TrimSpace(record)
		if len(trimmed) > 0 {
			if ferr := fn(line, trimmed); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// RunLines streams newline-delimited JSON (JSON Lines) from r, evaluating
// the query against every record with memory bounded by the largest single
// record — the streaming regime the paper's introduction motivates, applied
// record-wise. Each record runs under the execution supervisor: the
// configured deadline (WithTimeout) applies per record, and an internal
// fault in the primary engine degrades that one record to the DOM oracle
// (WithFallback to opt out) without disturbing its neighbours. visit is
// called for each record with at least one match, for each record that
// fails to evaluate (LineMatch.Err non-nil, offsets relative to the
// record), and for each record whose evaluation settled only after
// degradation; a bad record is skipped and the scan continues with the next
// line. visit returning a non-nil error stops the scan and is returned
// verbatim. Only a read error on r itself aborts the scan.
func (q *Query) RunLines(r io.Reader, visit func(m LineMatch) error) error {
	var buf []int
	return forEachLine(r, func(line int, record []byte) error {
		oc, err := settleRecord(context.Background(), q, q.pol, record, &buf)
		return visitLine(line, record, buf, oc, err, visit)
	})
}

// settleRecord evaluates one record under supervision, leaving the settled
// matches in *buf (its capacity reused), as the evaluator's collect
// buffers them.
func settleRecord(ctx context.Context, ev evaluator, pol policy, record []byte, buf *[]int) (Outcome, error) {
	pol.settle, pol.keep = true, buf
	return execute(ctx, ev, source{data: record}, sink{}, pol)
}

// visitLine reports one settled record of a Query lines scan to visit: each
// record with at least one match, each failed record, and each degraded
// record.
func visitLine(line int, record []byte, offs []int, oc Outcome, err error, visit func(m LineMatch) error) error {
	if err == nil && len(offs) == 0 && !oc.Degraded() {
		return nil
	}
	m := LineMatch{Line: line, Record: record, Outcome: &oc, Err: err}
	if err == nil {
		m.Offsets = offs
	}
	return visit(m)
}

// LineFailure describes one record of a CountLines scan that deserves
// attention: either the record failed outright (Err non-nil) or it was
// answered only by the degradation ladder (Err nil, Outcome.Degraded true —
// the matches counted, but the primary engine's fault is on record).
type LineFailure struct {
	// Line is the 1-based record number.
	Line int
	// Err is the record's terminal error; nil when the degradation ladder
	// rescued the record.
	Err error
	// Outcome reports how the record's supervised evaluation settled.
	Outcome Outcome
}

// CountLines streams newline-delimited JSON from r and returns the total
// number of matches across records that evaluated successfully, together
// with a report of every record that failed or settled only after
// degradation (see LineFailure). A failed record is skipped; a degraded
// record's matches are included in total.
func (q *Query) CountLines(r io.Reader) (total int, failures []LineFailure, err error) {
	err = q.RunLines(r, func(m LineMatch) error {
		if m.Err != nil || m.Outcome.Degraded() {
			failures = append(failures, LineFailure{Line: m.Line, Err: m.Err, Outcome: *m.Outcome})
		}
		if m.Err == nil {
			total += len(m.Offsets)
		}
		return nil
	})
	return total, failures, err
}
