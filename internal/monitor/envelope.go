package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
)

// The acked envelope protocol: the one ingest frame the warehouse
// accepts. It is the only one because a frame without an ack cannot
// reconcile "sent" against "ingested" under mid-stream resets — the
// sender never learns whether the bytes landed. Each envelope carries one
// chunk of samples and adds three things around it:
//
//	{"batch":SEQ,"agent":"ID","crc":C,"samples":[...]}\n
//
//	1. a per-agent sequence number, so a retry is recognizable;
//	2. a CRC32C over agent|seq|samples, so a corrupted frame is rejected
//	   (and the connection closed) instead of ingesting mangled values;
//	3. an acknowledgment — {"ack":SEQ,"ok":N,"shed":M,"crc":C}\n —
//	   carrying how many samples were admitted and how many the ingest
//	   limiter shed, CRC'd itself so a corrupted ack is a retryable
//	   transport error, never a silent accounting skew.
//
// The warehouse remembers each agent's last (seq, crc, ok, shed): a retry
// of the same bytes under the same seq re-acks the original counts
// without re-ingesting, so a retry after a lost ack is exactly-once, while
// a restarted sender reusing a seq for different samples is ingested
// fresh. Sent therefore reconciles exactly:
// queued = acked + serverShed + droppedQueue + still-pending.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelopeCRC covers agent, seq, and the raw samples array bytes, with a
// separator so field boundaries cannot alias.
func envelopeCRC(agent string, seq uint64, samples []byte) uint32 {
	c := crc32.Update(0, castagnoli, []byte(agent))
	c = crc32.Update(c, castagnoli, []byte{'|'})
	c = crc32.Update(c, castagnoli, strconv.AppendUint(nil, seq, 10))
	c = crc32.Update(c, castagnoli, []byte{'|'})
	return crc32.Update(c, castagnoli, samples)
}

// appendEnvelope appends one '\n'-terminated envelope line. samples must
// be a JSON array (no trailing newline), exactly the bytes the CRC covers.
func appendEnvelope(dst []byte, agent string, seq uint64, samples []byte) []byte {
	dst = append(dst, `{"batch":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"agent":`...)
	dst = strconv.AppendQuote(dst, agent)
	dst = append(dst, `,"crc":`...)
	dst = strconv.AppendUint(dst, uint64(envelopeCRC(agent, seq, samples)), 10)
	dst = append(dst, `,"samples":`...)
	dst = append(dst, samples...)
	return append(dst, '}', '\n')
}

type envelopeWire struct {
	Batch   *uint64         `json:"batch"`
	Agent   string          `json:"agent"`
	CRC     uint32          `json:"crc"`
	Samples json.RawMessage `json:"samples"`
}

// envelope is one decoded, CRC-checked envelope.
type envelope struct {
	agent   string
	seq     uint64
	crc     uint32
	samples []byte // the raw JSON array; aliases the decoded line
}

// decodeEnvelope parses and CRC-checks one envelope line. Any failure —
// malformed JSON, a line that is not an envelope at all, missing fields,
// CRC mismatch — is a protocol error; the caller must close the
// connection so the sender retries the whole frame.
func decodeEnvelope(line []byte) (envelope, error) {
	var e envelopeWire
	if err := json.Unmarshal(line, &e); err != nil {
		return envelope{}, fmt.Errorf("monitor: malformed envelope: %w", err)
	}
	if e.Batch == nil || e.Agent == "" || len(e.Samples) == 0 {
		return envelope{}, errors.New("monitor: envelope missing batch, agent or samples")
	}
	if got := envelopeCRC(e.Agent, *e.Batch, e.Samples); got != e.CRC {
		return envelope{}, fmt.Errorf("monitor: envelope crc mismatch: frame says %d, bytes say %d", e.CRC, got)
	}
	return envelope{agent: e.Agent, seq: *e.Batch, crc: e.CRC, samples: e.Samples}, nil
}

// ackResult is one acknowledgment's content.
type ackResult struct {
	seq  uint64
	ok   int
	shed int
}

// ackCRC covers seq, ok, and shed with separators. Acks carry counts the
// sender folds straight into its books, so a flipped digit that still
// parses as JSON must not pass — the CRC turns it into a retryable error.
func ackCRC(r ackResult) uint32 {
	c := crc32.Update(0, castagnoli, strconv.AppendUint(nil, r.seq, 10))
	c = crc32.Update(c, castagnoli, []byte{'|'})
	c = crc32.Update(c, castagnoli, strconv.AppendInt(nil, int64(r.ok), 10))
	c = crc32.Update(c, castagnoli, []byte{'|'})
	return crc32.Update(c, castagnoli, strconv.AppendInt(nil, int64(r.shed), 10))
}

// appendAck appends one '\n'-terminated ack line.
func appendAck(dst []byte, r ackResult) []byte {
	dst = append(dst, `{"ack":`...)
	dst = strconv.AppendUint(dst, r.seq, 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendInt(dst, int64(r.ok), 10)
	dst = append(dst, `,"shed":`...)
	dst = strconv.AppendInt(dst, int64(r.shed), 10)
	dst = append(dst, `,"crc":`...)
	dst = strconv.AppendUint(dst, uint64(ackCRC(r)), 10)
	return append(dst, '}', '\n')
}

type ackWire struct {
	Ack  *uint64 `json:"ack"`
	OK   int     `json:"ok"`
	Shed int     `json:"shed"`
	CRC  *uint32 `json:"crc"`
}

// decodeAck parses and CRC-checks one ack line.
func decodeAck(line []byte) (ackResult, error) {
	var a ackWire
	if err := json.Unmarshal(line, &a); err != nil {
		return ackResult{}, fmt.Errorf("monitor: malformed ack: %w", err)
	}
	if a.Ack == nil {
		return ackResult{}, errors.New("monitor: ack missing sequence")
	}
	if a.CRC == nil {
		return ackResult{}, errors.New("monitor: ack missing crc")
	}
	if a.OK < 0 || a.Shed < 0 {
		return ackResult{}, errors.New("monitor: negative ack counts")
	}
	r := ackResult{seq: *a.Ack, ok: a.OK, shed: a.Shed}
	if got := ackCRC(r); got != *a.CRC {
		return ackResult{}, fmt.Errorf("monitor: ack crc mismatch: frame says %d, bytes say %d", *a.CRC, got)
	}
	return r, nil
}
