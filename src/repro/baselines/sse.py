"""Searchable symmetric encryption (SSE) substrate for Logarithmic-SRC-i.

A standard result-revealing SSE index in the Curtmola/Cash mould, toy
realisation: the searchable *token* of a keyword is a keyed PRF of the
keyword (so the server learns nothing from tokens it has not received),
and each posting is an encrypted fixed-size record.  Lookups and
retrievals are metered through the shared cost counter so Logarithmic-
SRC-i's query costs are measured on the same scale as PRKB's.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..crypto.primitives import SecretKey, prf_words
from ..edbms.costs import CostCounter

__all__ = ["SSEIndex"]

#: Bytes per encrypted posting record (three encrypted 64-bit words plus
#: per-record IV overhead) — used for storage accounting.
POSTING_BYTES = 32

#: Bytes per stored token key in the dictionary.
TOKEN_BYTES = 16

#: Word mask: records carry 64-bit words; signed values are stored in
#: two's complement (see :func:`pack_signed` / :func:`unpack_signed`).
_WORD_MASK = (1 << 64) - 1


class SSEIndex:
    """Encrypted multimap: token → list of encrypted 3-word records.

    Records are triples of 64-bit words (Logarithmic-SRC-i stores either
    ``(value, pos_lo, pos_hi)`` or ``(uid, 0, 0)``), encrypted with the
    PRF stream keyed per record.
    """

    def __init__(self, key: SecretKey, counter: CostCounter):
        self._key = key.subkey("sse")
        self.counter = counter
        # token -> {record serial -> encrypted record}.  The serial is the
        # record's public handle (it is stored in the clear as word 0), so
        # deletion is O(1) without decrypting the posting list.
        self._postings: dict[bytes, dict[int, np.ndarray]] = {}
        self._record_serial = 0
        # Keyed BLAKE2b is a bona fide MAC and much faster than HMAC-SHA256
        # for the hundreds of thousands of token derivations bulk index
        # construction performs.
        self._token_key = self._key.subkey("tokens").raw[:32]

    # -- owner-side token derivation ---------------------------------------- #

    def token(self, keyword: bytes) -> bytes:
        """Searchable token for a keyword (keyed-PRF output)."""
        return hashlib.blake2b(keyword, key=self._token_key,
                               digest_size=TOKEN_BYTES).digest()

    def _encrypt_record(self, words: tuple[int, int, int]) -> np.ndarray:
        serial = self._record_serial
        self._record_serial += 1
        nonces = np.arange(3, dtype=np.uint64) + np.uint64(serial * 3)
        plain = np.asarray([w & _WORD_MASK for w in words],
                           dtype=np.uint64)
        stream = prf_words(self._key.subkey("records"), nonces)
        record = np.empty(4, dtype=np.uint64)
        record[0] = np.uint64(serial)
        record[1:] = plain ^ stream
        return record

    def _decrypt_record(self, record: np.ndarray) -> tuple[int, int, int]:
        serial = int(record[0])
        nonces = np.arange(3, dtype=np.uint64) + np.uint64(serial * 3)
        stream = prf_words(self._key.subkey("records"), nonces)
        plain = record[1:] ^ stream
        return tuple(int(w) for w in plain)

    # -- index maintenance ---------------------------------------------------- #

    def add(self, keyword: bytes, words: tuple[int, int, int]) -> int:
        """File one record under a keyword; returns its serial handle."""
        token = self.token(keyword)
        record = self._encrypt_record(words)
        serial = int(record[0])
        self._postings.setdefault(token, {})[serial] = record
        self.counter.charge(index_updates=1)
        return serial

    def add_bulk(self, items: list[tuple[bytes, tuple[int, int, int]]]
                 ) -> np.ndarray:
        """File many records at once — vectorised encryption.

        Semantically identical to calling :meth:`add` per item, but the
        whole batch shares one keystream expansion and token derivations
        are memoised, which is what makes bulk index construction at
        benchmark scale practical.  Returns the serials, aligned with
        ``items``.
        """
        if not items:
            return np.zeros(0, dtype=np.uint64)
        count = len(items)
        base_serial = self._record_serial
        self._record_serial += count
        serials = np.arange(base_serial, base_serial + count,
                            dtype=np.uint64)
        nonces = (np.repeat(serials * np.uint64(3), 3)
                  + np.tile(np.arange(3, dtype=np.uint64), count))
        stream = prf_words(self._key.subkey("records"), nonces)
        plain = np.asarray(
            [(a & _WORD_MASK, b & _WORD_MASK, c & _WORD_MASK)
             for __, (a, b, c) in items],
            dtype=np.uint64,
        ).reshape(count, 3)
        encrypted = plain ^ stream.reshape(count, 3)
        records = np.empty((count, 4), dtype=np.uint64)
        records[:, 0] = serials
        records[:, 1:] = encrypted
        token_cache: dict[bytes, bytes] = {}
        for row, (keyword, __) in enumerate(items):
            token = token_cache.get(keyword)
            if token is None:
                token = self.token(keyword)
                token_cache[keyword] = token
            self._postings.setdefault(token, {})[int(serials[row])] = \
                records[row]
        self.counter.charge(index_updates=count)
        return serials

    def remove_serial(self, keyword: bytes, serial: int) -> bool:
        """Remove one record by its serial handle — O(1), no decryption."""
        token = self.token(keyword)
        postings = self._postings.get(token)
        if not postings or serial not in postings:
            return False
        del postings[serial]
        if not postings:
            del self._postings[token]
        self.counter.charge(index_updates=1)
        return True

    def remove(self, keyword: bytes, first_word: int) -> int:
        """Remove records under ``keyword`` whose first word matches.

        Returns the number of records removed.  This form decrypts the
        posting list to find matches; prefer :meth:`remove_serial` when
        the caller kept the serial handles.
        """
        token = self.token(keyword)
        postings = self._postings.get(token)
        if not postings:
            return 0
        target = first_word & _WORD_MASK
        doomed = [
            serial for serial, record in postings.items()
            if self._decrypt_record(record)[0] == target
        ]
        for serial in doomed:
            del postings[serial]
        if not postings:
            del self._postings[token]
        self.counter.charge(index_updates=len(doomed))
        return len(doomed)

    # -- server-side search ----------------------------------------------------- #

    def search(self, token: bytes) -> list[np.ndarray]:
        """Encrypted postings for a token — one SSE lookup."""
        postings = self._postings.get(token, {})
        self.counter.charge(sse_lookups=1, tuples_retrieved=len(postings))
        return list(postings.values())

    # -- trusted-machine decryption ----------------------------------------------- #

    def open_records(self, records: list[np.ndarray]
                     ) -> list[tuple[int, int, int]]:
        """Decrypt retrieved records (TM side); QPF-like cost per record."""
        self.counter.charge(qpf_uses=len(records))
        return [self._decrypt_record(record) for record in records]

    def reveal_records(self, records: list[np.ndarray]
                       ) -> list[tuple[int, int, int]]:
        """Decode retrieved records server-side — cheap, no TM involved.

        Standard result-revealing SSE lets the server decode the postings
        it legitimately retrieved (the token carries the decoding
        capability).  Use this when the scheme needs no trusted
        confirmation (e.g. Logarithmic-BRC, which has no false
        positives); use :meth:`open_records` when the decode is a
        trusted-machine confirmation step.
        """
        self.counter.charge(comparisons=len(records))
        return [self._decrypt_record(record) for record in records]

    # -- accounting ------------------------------------------------------------------ #

    @property
    def num_records(self) -> int:
        """Total records across all postings."""
        return sum(len(p) for p in self._postings.values())

    def storage_bytes(self) -> int:
        """Index footprint: dictionary keys plus encrypted postings."""
        return (len(self._postings) * TOKEN_BYTES
                + self.num_records * POSTING_BYTES)


def pack_signed(value: int) -> int:
    """Map a signed integer into the 64-bit word space for records."""
    return value & ((1 << 64) - 1)


def unpack_signed(word: int) -> int:
    """Invert :func:`pack_signed`."""
    if word >= 1 << 63:
        return word - (1 << 64)
    return word


def node_keyword(material: bytes) -> bytes:
    """Keyword bytes for a TDAG node (namespaced)."""
    return b"node:" + material
