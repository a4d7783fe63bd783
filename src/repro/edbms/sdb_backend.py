"""SDB-style secret-sharing backend — a second EDBMS under PRKB.

The paper's compatibility claim (Sec. 3.1): PRKB runs on top of *any*
EDBMS whose selection processing fits the QPF model — trusted-hardware
systems (our default :class:`~repro.edbms.qpf.TrustedMachine`) and
secret-sharing systems like SDB alike.  This module provides the latter:

* :class:`SecretSharedTable` — the service provider's half of the data:
  one multiplicative share per cell (``value · m^r mod n``); the data
  owner keeps only the share-generating key (the paper's footnote 2:
  the ``r`` exponents come from an RSA-like generator, so DO-side
  storage is O(1)).
* :class:`MPCQueryProcessingFunction` — Θ realised as a two-party
  protocol: for each probed tuple the SP ships the masked share to the
  DO, who unmasks and evaluates the comparison, returning the 0/1 bit.
  Each use costs one ``qpf_uses`` tick *plus* two ``mpc_messages``
  (request + response), which the cost model prices higher than a local
  trusted-machine call — reproducing SDB's "communication is the price
  of avoiding trusted hardware" trade-off.

Because the interface matches :class:`QueryProcessingFunction`,
``PRKBIndex`` and every processor on top of it run unmodified — the
compatibility claim is exercised directly by the test suite.

Values must fit ``[1, modulus)`` after an affine domain shift; the
table applies the shift internally so callers use natural values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..crypto.primitives import SecretKey
from ..crypto.secret_sharing import SecretSharingScheme
from ..crypto.trapdoor import (
    EncryptedPredicate,
    unseal_predicate,
)
from .costs import CostCounter
from .qpf import PREDICATE_CACHE_SIZE, PredicateLRU, QPFRequest, \
    _evaluate_plain

__all__ = ["SecretSharedTable", "MPCQueryProcessingFunction",
           "share_table", "share_rows"]


class SecretSharedTable:
    """SP-side storage of a secret-shared relation.

    Mirrors the parts of :class:`~repro.edbms.encryption.EncryptedTable`
    that PRKB touches (``name``, ``attribute_names``, ``uids``,
    ``positions``) so index code is backend-agnostic.
    """

    def __init__(self, name: str, attribute_names: tuple[str, ...],
                 uids: np.ndarray, sp_shares: dict[str, np.ndarray],
                 domain_shift: dict[str, int]):
        self.name = name
        self.attribute_names = tuple(attribute_names)
        self._uids = np.asarray(uids, dtype=np.uint64)
        self._sp_shares = {
            attr: np.asarray(col, dtype=np.uint64)
            for attr, col in sp_shares.items()
        }
        self.domain_shift = dict(domain_shift)
        if set(self._sp_shares) != set(self.attribute_names):
            raise ValueError("share columns do not match attributes")
        for attr, col in self._sp_shares.items():
            if len(col) != len(self._uids):
                raise ValueError(f"column {attr!r} misaligned with uids")
        self._position_of = {
            int(uid): pos for pos, uid in enumerate(self._uids)
        }
        self._next_uid = int(self._uids.max()) + 1 if len(self._uids) else 0

    @property
    def num_rows(self) -> int:
        """Number of shared tuples stored at the SP."""
        return len(self._uids)

    @property
    def uids(self) -> np.ndarray:
        """All row uids (read-only view)."""
        view = self._uids.view()
        view.flags.writeable = False
        return view

    def positions(self, uids: np.ndarray) -> np.ndarray:
        """Physical positions of the given uids."""
        try:
            return np.fromiter(
                (self._position_of[int(u)] for u in np.asarray(uids).ravel()),
                dtype=np.int64,
                count=int(np.asarray(uids).size),
            )
        except KeyError as exc:
            raise KeyError(f"unknown uid {exc.args[0]}") from None

    def shares_for(self, attribute: str, uids: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(SP shares, nonce uids) for the requested rows."""
        uids = np.asarray(uids, dtype=np.uint64)
        return self._sp_shares[attribute][self.positions(uids)], uids

    def storage_bytes(self) -> int:
        """SP-side footprint (shares + uids)."""
        cells = sum(col.nbytes for col in self._sp_shares.values())
        return cells + self._uids.nbytes

    # -- updates ------------------------------------------------------- #

    def allocate_uids(self, count: int) -> np.ndarray:
        """Reserve fresh uids for rows about to be inserted."""
        fresh = np.arange(self._next_uid, self._next_uid + count,
                          dtype=np.uint64)
        self._next_uid += count
        return fresh

    def insert_rows(self, uids: np.ndarray,
                    sp_shares: dict[str, np.ndarray]) -> None:
        """Append already-shared rows (uids from :meth:`allocate_uids`)."""
        uids = np.asarray(uids, dtype=np.uint64)
        for uid in uids:
            if int(uid) in self._position_of:
                raise ValueError(f"uid {int(uid)} already present")
        base = len(self._uids)
        self._uids = np.concatenate([self._uids, uids])
        for attr in self.attribute_names:
            col = np.asarray(sp_shares[attr], dtype=np.uint64)
            if len(col) != len(uids):
                raise ValueError(f"column {attr!r} misaligned")
            self._sp_shares[attr] = np.concatenate(
                [self._sp_shares[attr], col])
        for offset, uid in enumerate(uids):
            self._position_of[int(uid)] = base + offset

    def delete_rows(self, uids: np.ndarray) -> None:
        """Remove rows by uid."""
        doomed = {int(u) for u in np.asarray(uids).ravel()}
        missing = doomed - set(self._position_of)
        if missing:
            raise KeyError(f"unknown uids: {sorted(missing)[:5]}")
        keep = np.fromiter(
            (int(u) not in doomed for u in self._uids),
            dtype=bool, count=len(self._uids))
        self._uids = self._uids[keep]
        for attr in self.attribute_names:
            self._sp_shares[attr] = self._sp_shares[attr][keep]
        self._position_of = {
            int(uid): pos for pos, uid in enumerate(self._uids)
        }


def share_rows(key: SecretKey, table: SecretSharedTable,
               rows: dict[str, np.ndarray],
               uids: np.ndarray) -> dict[str, np.ndarray]:
    """DO-side sharing of new rows for insertion into ``table``."""
    scheme = SecretSharingScheme(key)
    sp_shares = {}
    for attr in table.attribute_names:
        shift = table.domain_shift[attr]
        shifted = np.asarray(rows[attr], dtype=np.int64) + shift
        __, sp = scheme.share_many(shifted,
                                   np.asarray(uids, dtype=np.uint64))
        sp_shares[attr] = sp
    return sp_shares


def share_table(key: SecretKey, table) -> SecretSharedTable:
    """Split a :class:`PlainTable` into shares; returns the SP half.

    Attribute domains are shifted so every shared value is >= 1 (zero has
    no multiplicative inverse); the shift is public metadata.
    """
    scheme = SecretSharingScheme(key)
    sp_shares = {}
    domain_shift = {}
    for attr in table.schema.names:
        spec = table.schema[attr]
        shift = 1 - spec.domain_min  # maps domain_min -> 1
        domain_shift[attr] = shift
        shifted = table.columns[attr].astype(np.int64) + shift
        __, sp = scheme.share_many(shifted, table.uids)
        sp_shares[attr] = sp
    return SecretSharedTable(
        name=table.name,
        attribute_names=table.schema.names,
        uids=table.uids.copy(),
        sp_shares=sp_shares,
        domain_shift=domain_shift,
    )


class MPCQueryProcessingFunction:
    """Θ as a two-party computation between SP and DO (SDB style).

    Drop-in replacement for :class:`QueryProcessingFunction`: same call
    signatures, same 0/1 observable, different cost profile.  The DO-side
    unmasking lives here because in SDB the owner *is* part of query
    processing (the paper's footnote 4 explicitly exempts this from the
    "no DO involvement" property, which concerns the index only).
    """

    def __init__(self, key: SecretKey, counter: CostCounter | None = None,
                 predicate_cache_size: int = PREDICATE_CACHE_SIZE):
        self._key = key
        self._scheme = SecretSharingScheme(key)
        self.counter = counter or CostCounter()
        self._predicate_cache = PredicateLRU(predicate_cache_size)

    def _plain_predicate(self, trapdoor: EncryptedPredicate):
        cached = self._predicate_cache.get(trapdoor.serial)
        if cached is None:
            self.counter.charge(predicate_cache_misses=1)
            cached = unseal_predicate(self._key, trapdoor)
            self._predicate_cache.put(trapdoor.serial, cached)
        else:
            self.counter.charge(predicate_cache_hits=1)
        return cached

    def _recover_values(self, table: SecretSharedTable, attribute: str,
                        uids: np.ndarray) -> np.ndarray:
        """DO-side share recombination for the probed cells."""
        sp_shares, nonces = table.shares_for(attribute, uids)
        shift = table.domain_shift[attribute]
        values = np.empty(uids.size, dtype=np.int64)
        for i, (share, nonce) in enumerate(zip(sp_shares.tolist(),
                                               nonces.tolist())):
            r = self._scheme._random_exponent(nonce)
            mask = pow(self._scheme.base, r, self._scheme.modulus)
            inverse = pow(mask, -1, self._scheme.modulus)
            values[i] = (share * inverse) % self._scheme.modulus - shift
        return values

    def __call__(self, trapdoor: EncryptedPredicate,
                 table: SecretSharedTable, uid: int) -> bool:
        """Θ(p̂, t̂) for one tuple — one QPF use, one message round-trip."""
        return bool(self.batch(trapdoor, table,
                               np.asarray([uid], dtype=np.uint64))[0])

    def batch(self, trapdoor: EncryptedPredicate,
              table: SecretSharedTable, uids: np.ndarray) -> np.ndarray:
        """Θ over many tuples; ``len(uids)`` QPF uses + 2 messages each.

        One call is one SP↔DO exchange, metered as one ``qpf_roundtrips``
        tick — the same convention as the trusted-hardware backend, so
        roundtrip figures are comparable across backends.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        size = int(uids.size)
        if size == 0:
            return np.zeros(0, dtype=bool)
        self.counter.charge(qpf_uses=size, tuples_retrieved=size,
                            mpc_messages=2 * size, qpf_roundtrips=1)
        predicate = self._plain_predicate(trapdoor)
        values = self._recover_values(table, trapdoor.attribute, uids)
        return _evaluate_plain(predicate, values)

    def batch_many(self, requests: Sequence[QPFRequest]) -> list[np.ndarray]:
        """Θ over a coalesced multi-request payload — one SP↔DO exchange.

        Per-tuple accounting (``qpf_uses`` and the 2-messages-per-tuple
        MPC price) is identical to sending each request alone; only the
        number of exchanges (``qpf_roundtrips``) shrinks to one.
        """
        total = sum(int(r.uids.size) for r in requests)
        if total == 0:
            return [np.zeros(0, dtype=bool) for _ in requests]
        self.counter.charge(qpf_uses=total, tuples_retrieved=total,
                            mpc_messages=2 * total, qpf_roundtrips=1)
        results = []
        for request in requests:
            if request.uids.size == 0:
                results.append(np.zeros(0, dtype=bool))
                continue
            predicate = self._plain_predicate(request.trapdoor)
            values = self._recover_values(
                request.table, request.trapdoor.attribute, request.uids)
            results.append(_evaluate_plain(predicate, values))
        return results
