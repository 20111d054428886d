"""The cup product one pair of cocycles at a time: the reference that the
batched ``koszulhh.cup`` is compared with.  No command runs it, so it lives
with the tests.  This is ``cup`` from before it became one array join over
two lists of cocycles, with its body unchanged but for the pairing's value,
read from its table as ``Pairing.apply`` read it, and the model's pairs,
read from its arrays ``ci`` and ``xi``.  ``single_cup`` is one product of the
batched ``cup``, for tests that multiply one pair at a time.
"""

from __future__ import annotations

from hh2.koszulhh import (Cochain, CochainModel, NotACocycle, Pairing, PairingDegreeMismatch,
                          cup)

from batches import as_batch, as_chains
from model_reference import is_cocycle


def cup_one(model_x: CochainModel, u: Cochain, model_y: CochainModel, v: Cochain,
            pairing: Pairing, model_z: CochainModel) -> Cochain:
    """Cup product of cocycles at representative level.

    Result lives in the model over pairing's target; c-parts compose in the
    opposite order and the Koszul sign is (-1)^{k(x) k(y)} over the
    coefficient k-degrees.  Only pairings of even k-shift induce chain maps;
    odd ones (the socle embeddings) are handled at class level by composing
    a cup through their even factor with the named map they induce.
    """
    if pairing.factor is not None:
        raise PairingDegreeMismatch(
            f"pairing {pairing.name} has odd degree; cup through its factor instead")
    if not is_cocycle(model_x, u) or not is_cocycle(model_y, v):
        raise NotACocycle("cup inputs must be cocycles")
    if pairing.x_mod is not model_x.x_mod or pairing.y_mod is not model_y.x_mod:
        raise PairingDegreeMismatch("pairing does not match the given models")
    c, p = model_x.c, model_x.p
    pairs_x, pairs_y, pairs_z = (list(zip(m.ci.tolist(), m.xi.tolist()))
                                 for m in (model_x, model_y, model_z))
    pair_index = {pr: n for n, pr in enumerate(pairs_z)}
    out: Cochain = {}
    for nu, cu in u.items():
        ci_u, xi_u = pairs_x[nu]
        kx = model_x.x_mod.basis[xi_u].k
        for nv, cv in v.items():
            ci_v, xi_v = pairs_y[nv]
            ky = model_y.x_mod.basis[xi_v].k
            cpart = c.mul_basis(ci_v, ci_u)  # opposite composition
            if not cpart:
                continue
            coeff_part = pairing.table.get((xi_u, xi_v), {})
            if not coeff_part:
                continue
            sign = -1 if (kx * ky) % 2 else 1
            for cc, c1 in cpart.items():
                for zz, c2 in coeff_part.items():
                    pr = (cc, zz)
                    if pr not in pair_index:
                        raise AssertionError("cup left the diagonal")
                    n = pair_index[pr]
                    val = (out.get(n, 0) + sign * cu * cv * c1 * c2) % p
                    if val:
                        out[n] = val
                    else:
                        out.pop(n, None)
    if not is_cocycle(model_z, out):
        raise NotACocycle("cup product failed to be a cocycle")
    return out


def single_cup(model_x: CochainModel, u: Cochain, model_y: CochainModel, v: Cochain,
               pairing: Pairing, model_z: CochainModel) -> Cochain:
    """The batched ``cup`` of one product: u . v."""
    return as_chains(cup(model_x, as_batch([u]), model_y, as_batch([v]), pairing, model_z))[0]
