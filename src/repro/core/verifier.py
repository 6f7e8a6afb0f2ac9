"""The public verifier — Challenge and Verify (Section IV-B) and the
sampling analysis of Section IV-C / Table II.

Verification checks Eq. 6:

    e(σ, g)  ==  e( ∏_{i∈I} H(id_i)^{β_i} · ∏_{l=1}^{k} u_l^{α_l} ,  pk ).

One body evaluates it (``PublicVerifier._parts`` and ``_holds``): many
audits fold into a single random-weight check, one audit is the weight-1
case, and
``PublicVerifier.failing`` bisects a failed fold to name the bad proofs
(multi-prover auditing after Paterson–Stinson).

The verifier needs only the public key, the block identifiers, and the
(k + 1)-element response — never the data itself.  Anonymity is structural:
everything on the right-hand side involves the *organization's* key, so
nothing identifies which member created the blocks.

Sampling: challenging c random blocks detects an f-fraction corruption with
probability 1 − (1 − f)^c; c = 460 gives > 99% for f = 1% (the paper's
Table II setting, following Ateniese et al.).
"""

from __future__ import annotations

import math
import secrets

from repro.core.blocks import make_block_id
from repro.core.challenge import Challenge, ProofResponse
from repro.core.params import SystemParams
from repro.pairing.interface import GroupElement


def detection_probability(corrupt_fraction: float, challenged: int) -> float:
    """P[detect] = 1 − (1 − f)^c under uniform random sampling.

    >>> round(detection_probability(0.01, 460), 4)  # the paper's Table II c
    0.9902

    Raises:
        ValueError: if ``corrupt_fraction`` is outside [0, 1].
    """
    if not 0.0 <= corrupt_fraction <= 1.0:
        raise ValueError("corrupt_fraction must be in [0, 1]")
    return 1.0 - (1.0 - corrupt_fraction) ** challenged

def blocks_needed_for_detection(corrupt_fraction: float, target_probability: float) -> int:
    """Smallest c with detection probability >= target (paper: f=1%, 99% -> c=460)."""
    if not 0.0 < corrupt_fraction < 1.0:
        raise ValueError("corrupt_fraction must be in (0, 1)")
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    return math.ceil(math.log(1.0 - target_probability) / math.log(1.0 - corrupt_fraction))


class PublicVerifier:
    """Anyone auditing cloud data: a data user, a TPA, or the cloud itself."""

    def __init__(self, params: SystemParams, org_pk: GroupElement, rng=None, pool=None):
        self.params = params
        self.group = params.group
        self.org_pk = org_pk
        self._rng = rng
        self.pool = pool

    # -- Challenge -----------------------------------------------------------
    def generate_challenge(
        self,
        file_id: bytes,
        n_blocks: int,
        sample_size: int | None = None,
        beta_bits: int | None = None,
    ) -> Challenge:
        """Build C = {(id_i, β_i)} for a random c-subset of the n blocks.

        Args:
            n_blocks: total blocks n in the stored file.
            sample_size: c; all n blocks when omitted.
            beta_bits: draw β from Z_q with |q| = beta_bits instead of the
                full Z_p — the paper's "small exponentiations" optimization
                (Ferrara et al. give the soundness/size trade-off).
        """
        if sample_size is None or sample_size >= n_blocks:
            indices = list(range(n_blocks))
        else:
            population = range(n_blocks)
            if self._rng is not None:
                indices = sorted(self._rng.sample(population, sample_size))
            else:
                chosen: set[int] = set()
                while len(chosen) < sample_size:
                    chosen.add(secrets.randbelow(n_blocks))
                indices = sorted(chosen)
        betas = [self._random_beta(beta_bits) for _ in indices]
        return Challenge(
            indices=tuple(indices),
            block_ids=tuple(make_block_id(file_id, i) for i in indices),
            betas=tuple(betas),
        )

    def _random_beta(self, beta_bits: int | None) -> int:
        if beta_bits is None:
            bound = self.params.order
        else:
            bound = min(1 << beta_bits, self.params.order)
        if self._rng is not None:
            return self._rng.randrange(1, bound)
        return secrets.randbelow(bound - 1) + 1

    # -- Verify ----------------------------------------------------------------
    def verify(self, challenge: Challenge, response: ProofResponse) -> bool:
        """Eq. 6.  True iff the challenged blocks are intact.

        The one-audit case of :meth:`verify_batch`: a lone audit folds at
        weight 1, so no weight is drawn (the verifier rng is untouched) and
        σ is paired as is.  Op-count cost: c ``hash_to_g1``, one
        ``cofactor_clear``, (c + k) Exp_G1 (``exp_g1_msm`` per nonzero
        exponent, ``exp_g1_skipped`` per zero α_l — Section VI-A2 counts
        (c + k) Exp unconditionally) and 2 Pair.
        """
        return self.verify_batch([(challenge, response)])

    def verify_batch(
        self, audits: list[tuple[Challenge, ProofResponse]], rng=None
    ) -> bool:
        """Verify audits of several files with one folded Eq. 6 check.

        All files are signed under the same organization key, so L audit
        equations combine with random weights w_i (drawn from ``rng``, else
        the verifier's own):

            e(∏ σ_i^{w_i}, g)  ==  e(∏ χ_i^{w_i}, pk),

        2 pairings for any L (the multi-request batching WCWRL11
        advertises, free here because there is only ever one verification
        key).  Sound except with probability ≤ 1/(r − 1) per bad proof.
        Every response is screened first — k α's and σ ∈ G1 — since a
        small-order σ component would survive any weighting the pairing
        cannot see.  The empty batch is vacuously True.
        """
        if any(not self._well_formed(response) for _, response in audits):
            return False
        everyone = range(len(audits))
        weights = self._weights(everyone, rng)
        return not audits or self._holds(
            audits, weights, everyone, self._parts(audits, weights, everyone))

    def failing(self, audits: list[tuple[Challenge, ProofResponse]]) -> list[int]:
        """Indices (ascending) of the audits whose proofs fail Eq. 6.

        Malformed responses are named by the screen, without a pairing.
        The rest fold once (:meth:`verify_batch`'s check); only when that
        fold fails does the batch bisect, each half folding again under
        the same weights, down to single proofs.  A proof is named only
        when a fold over it alone, at weight 1, fails — exactly
        :meth:`verify`'s verdict, so an honest proof is never blamed.

        Cost: a clean batch is one fold (2 pairings); one bad proof among
        L costs at most 2⌈log₂ L⌉ + 1 folds.  Only a left half runs its
        MSMs: a right half's weighted σ and χ are its parent's minus the
        left half's, and a lone proof's χ at weight 1 is its weighted χ
        raised to w⁻¹.  The folds of one call share the raw hash points,
        so each challenged id is hashed once — twice when a worker pool
        hashes the first fold.  The weights are drawn once, after every
        proof is in hand, so no prover can adapt to them; each passing
        fold wrongly clears a bad proof with probability at most
        1/(r − 1) (its Eq. 6 defect, raised to a uniform nonzero w_i, must
        cancel the others' exactly).
        """
        malformed = [i for i, (_, response) in enumerate(audits)
                     if not self._well_formed(response)]
        screened = set(malformed)
        rest = [i for i in range(len(audits)) if i not in screened]
        if not rest:
            return malformed
        weights = self._weights(rest, None)
        points = None if self.pool else {}
        parts = self._parts(audits, weights, rest, points)
        if self._holds(audits, weights, rest, parts):
            return malformed
        return sorted(malformed + self._bisect(audits, weights, rest, parts, points or {}))

    def _bisect(self, audits, weights: dict[int, int], subset: list[int],
                parts: tuple[GroupElement, GroupElement], points: dict) -> list[int]:
        """The bad proofs in ``subset``, whose fold — weighted σ and χ
        ``parts`` — has just failed."""
        if len(subset) == 1:
            return list(subset)
        mid = len(subset) // 2
        left = self._parts(audits, weights, subset[:mid], points)
        right = tuple(self._minus(whole, part) for whole, part in zip(parts, left))
        return [i for half, half_parts in ((subset[:mid], left), (subset[mid:], right))
                if not self._holds(audits, weights, half, half_parts)
                for i in self._bisect(audits, weights, half, half_parts, points)]

    def _well_formed(self, response: ProofResponse) -> bool:
        """k α's and σ ∈ G1 — the screen every response passes before any
        weighting or pairing."""
        return (len(response.alphas) == self.params.k
                and self.group.in_g1(response.sigma))

    def _weights(self, indices, rng) -> dict[int, int]:
        """One random weight in [1, r) per audit index; a lone audit gets
        weight 1 and draws nothing."""
        if len(indices) == 1:
            return {indices[0]: 1}
        source = rng if rng is not None else self._rng
        order = self.params.order
        if source is None:
            return {i: secrets.randbelow(order - 1) + 1 for i in indices}
        return {i: source.randrange(1, order) for i in indices}

    def _parts(self, audits, weights: dict[int, int], subset,
               points=None) -> tuple[GroupElement, GroupElement]:
        """The two sides of Eq. 6 over the audits in ``subset``, folded
        with ``weights``:  σ = ∏ σ_i^{w_i}  and

            χ = ∏ H(id_ij)^{w_i·β_ij} · ∏ u_l^{Σ_i w_i·α_il}.

        The hash part is one :meth:`~repro.pairing.interface.PairingGroup.hash_msm`
        over every challenged id — on type A a single MSM over the raw
        try-and-increment points and one cofactor clearing — fanned out
        across workers when a :class:`~repro.core.parallel.WorkerPool` is
        attached; the u-part is one k-term MSM, σ one L-term MSM.  A lone
        audit at weight 1 uses its σ as is.  Given a ``points`` memo
        (:meth:`failing`), the ids hash in this process, not the pool.
        """
        order = self.params.order
        ids: list[bytes] = []
        exponents: list[int] = []
        alphas = [0] * self.params.k
        for i in subset:
            challenge, response = audits[i]
            if not challenge.block_ids:
                raise ValueError("empty challenge")
            w = weights[i]
            ids.extend(challenge.block_ids)
            exponents.extend(w * beta % order for beta in challenge.betas)
            for l, alpha in enumerate(response.alphas):
                alphas[l] += w * alpha
        h_part = (self.group.hash_msm(ids, exponents, points) if points is not None
                  else (self.pool or self.group).hash_msm(ids, exponents))
        u_part = self.group.multi_exp(list(self.params.u), alphas)
        chi = GroupElement(self.group, self.group._add(h_part.point, u_part.point), "g1")
        sigmas = [audits[i][1].sigma for i in subset]
        sigma_weights = [weights[i] for i in subset]
        if sigma_weights == [1]:
            return sigmas[0], chi
        return self.group.multi_exp(sigmas, sigma_weights), chi

    def _holds(self, audits, weights: dict[int, int], subset,
               parts: tuple[GroupElement, GroupElement]) -> bool:
        """Eq. 6 on a fold's ``parts``, one ``pairings_equal``.  A lone
        proof is checked at weight 1 — its own σ against its weighted χ
        raised to w⁻¹, one Exp — so the verdict is exactly :meth:`verify`'s."""
        sigma, chi = parts
        if len(subset) == 1 and weights[subset[0]] != 1:
            w = weights[subset[0]]
            sigma = audits[subset[0]][1].sigma
            chi = chi ** pow(w, -1, self.params.order)
        return self.group.pairings_equal(sigma, chi, self.org_pk)

    def _minus(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """a / b.  This and χ's merge are raw, uncounted additions —
        ``multi_exp`` doesn't tally its internal additions either."""
        return GroupElement(self.group, self.group._add(a.point, self.group._neg(b.point)), "g1")
