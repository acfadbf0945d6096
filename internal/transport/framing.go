package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/distrib"
)

// maxWireChunk bounds a single chunk's, and a single frame body's,
// declared wire length. The CDC chunker never produces chunks anywhere
// near this (default max 16KB), nor does any frame; the cap exists so a
// corrupt or hostile header cannot make a reader allocate or stream
// gigabytes.
const maxWireChunk = 1 << 26 // 64MB

// chunkBufPool recycles the scratch buffers the binary chunk read path
// fills from the socket. Every consumer of chunk bytes copies what it
// keeps (distrib.Cache.Add stores its own copy), so one pooled buffer
// serves an entire stream of chunks and large OpFetchChunks / peer
// transfers allocate nothing per frame on the hot path.
var chunkBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 32*1024)
		return &b
	},
}

// frameBufPool recycles the scratch buffers WriteFrame encodes into. A
// frame is encoded and handed to the buffered writer at once, so one
// pooled buffer serves every connection in turn: a per-connection encode
// buffer would cost a kilobyte per agent at fleet scale.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledFrame is the largest encode buffer returned to frameBufPool;
// the rare larger frame (an inline upgrade) does not pin its buffer.
const maxPooledFrame = 64 * 1024

// frameConn frames one side of a transport connection with the binary
// frame codec (codec.go): each frame is a version byte, a uvarint body
// length and the tagged body, optionally followed by a raw binary chunk
// body whose layout (per-chunk address and length, in order) the frame
// announces in Frame.ChunkMeta. The chunk payload crosses the wire
// byte-for-byte, behind a header of a dozen bytes per chunk.
//
// A frameConn is not safe for concurrent use; callers serialize access
// (the agent's serve loop, the vendor's per-connection RPC mutex).
type frameConn struct {
	br *bufio.Reader
	bw *bufio.Writer
	// line is the reusable buffer for frame bodies too large to decode
	// in place from br: it grows to the largest such frame the connection
	// has read, not per frame.
	line []byte
	// wireLen is the wire length of the last frame ReadFrame read:
	// version byte, length prefix and body.
	wireLen int
}

func newFrameConn(br *bufio.Reader, bw *bufio.Writer) *frameConn {
	return &frameConn{br: br, bw: bw}
}

// ReadFrame reads one frame into f. It reads exactly the declared body,
// so the stream stays positioned at the first byte of any chunk body that
// follows. A wrong version byte or a body length over maxWireChunk is
// refused before any body byte is read. A body that fits the reader's
// buffer is decoded in place; a larger one is read into fc.line, which
// grows only as bytes actually arrive, so a hostile length prefix
// allocates nothing up front. Either way the decoded frame copies every
// byte it keeps: it never aliases a read buffer.
func (fc *frameConn) ReadFrame(f *Frame) error {
	v, err := fc.br.ReadByte()
	if err != nil {
		return err
	}
	if v != frameVersion {
		return fmt.Errorf("transport: frame version %d, want %d", v, frameVersion)
	}
	n, err := binary.ReadUvarint(fc.br)
	if err != nil {
		return fmt.Errorf("transport: frame length: %w", noEOF(err))
	}
	if n > maxWireChunk {
		return fmt.Errorf("transport: frame declares a %d-byte body", n)
	}
	var prefix [binary.MaxVarintLen64]byte
	fc.wireLen = 1 + binary.PutUvarint(prefix[:], n) + int(n)
	if int(n) <= fc.br.Size() {
		body, err := fc.br.Peek(int(n))
		if err != nil {
			return noEOF(err)
		}
		err = decodeBody(body, f)
		fc.br.Discard(int(n)) // cannot fail: Peek just buffered n bytes
		return err
	}
	body := fc.line[:0]
	for len(body) < int(n) {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(max(len(body), fc.br.Size()), int(n)-len(body)))
		}
		k, err := io.ReadFull(fc.br, body[len(body):min(cap(body), int(n))])
		body = body[:len(body)+k]
		if err != nil {
			fc.line = body
			return noEOF(err)
		}
	}
	fc.line = body
	return decodeBody(body, f)
}

// noEOF turns the io.EOF of a frame cut short into io.ErrUnexpectedEOF:
// only a stream that ends between frames ends cleanly.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteFrame encodes f into a pooled scratch buffer and writes it as one
// frame. The buffered writer is not flushed: callers batch the frame with
// any binary body and flush once per message.
func (fc *frameConn) WriteFrame(f *Frame) error {
	bufp := frameBufPool.Get().(*[]byte)
	body, err := appendBody((*bufp)[:0], f)
	if err == nil {
		err = fc.writeFrameBody(body)
	}
	if cap(body) <= maxPooledFrame {
		*bufp = body[:0]
		frameBufPool.Put(bufp)
	}
	return err
}

// writeFrameBody writes the version byte and length prefix, then body.
func (fc *frameConn) writeFrameBody(body []byte) error {
	if len(body) > maxWireChunk {
		return fmt.Errorf("transport: frame body of %d bytes exceeds %d", len(body), maxWireChunk)
	}
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = frameVersion
	if _, err := fc.bw.Write(binary.AppendUvarint(head[:1], uint64(len(body)))); err != nil {
		return err
	}
	_, err := fc.bw.Write(body)
	return err
}

// WriteChunkBody writes the raw bytes of chunks after a header whose
// ChunkMeta listed them in the same order. The bytes go straight from the
// store's (or cache's) slices into the buffered writer — no intermediate
// copy, no encoding.
func (fc *frameConn) WriteChunkBody(chunks []distrib.Chunk) error {
	for _, ch := range chunks {
		if _, err := fc.bw.Write(ch.Data); err != nil {
			return err
		}
	}
	return nil
}

// chunkMeta builds the ChunkMeta header entries announcing chunks.
func chunkMeta(chunks []distrib.Chunk) []distrib.ChunkRef {
	meta := make([]distrib.ChunkRef, len(chunks))
	for i, ch := range chunks {
		meta[i] = distrib.ChunkRef{Hash: ch.Hash, Size: len(ch.Data)}
	}
	return meta
}

// ReadChunkBody reads the raw chunk body a header's meta announced,
// invoking fn for each chunk with a pooled scratch buffer that is reused
// between calls — fn must copy anything it keeps. The full declared body
// is always consumed, even when fn rejects a chunk (digest mismatch):
// on a persistent control channel an unconsumed body would desynchronize
// every later frame. The first fn error is returned after the body is
// drained; an I/O error aborts immediately (the stream is dead anyway).
func (fc *frameConn) ReadChunkBody(meta []distrib.ChunkRef, fn func(addr uint64, data []byte) error) error {
	bufp := chunkBufPool.Get().(*[]byte)
	defer chunkBufPool.Put(bufp)
	var firstErr error
	for _, ref := range meta {
		if ref.Size < 0 || ref.Size > maxWireChunk {
			return fmt.Errorf("transport: chunk body declares %d bytes", ref.Size)
		}
		if cap(*bufp) < ref.Size {
			*bufp = make([]byte, ref.Size)
		}
		buf := (*bufp)[:ref.Size]
		if _, err := io.ReadFull(fc.br, buf); err != nil {
			if firstErr != nil {
				return firstErr
			}
			return err
		}
		if firstErr == nil {
			firstErr = fn(ref.Hash, buf)
		}
	}
	return firstErr
}
