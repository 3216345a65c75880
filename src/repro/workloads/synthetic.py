"""Synthetic workloads with controlled skew and selectivity (Section 6).

Scaled-down versions of the paper's synthetic arrays, preserving their
*shape*: the same 32×32 chunk grids (1024 join units), the same Zipfian
skew sweeps over α ∈ [0, 2], and the same engineered join selectivities.
"""

from __future__ import annotations

import numpy as np

from repro.adm.array import LocalArray
from repro.adm.cells import CellSet
from repro.adm.parser import parse_schema
from repro.errors import SchemaError


def zipf_weights(
    n: int, alpha: float, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Normalised Zipf(α) weights over ``n`` items, randomly permuted.

    α = 0 is uniform; larger α concentrates mass in fewer items. The
    permutation detaches an item's rank from its index, so skew location
    is random rather than always hitting the first chunks. ``rng`` is an
    explicit generator or integer seed; the permutation never touches
    numpy's global RNG state, so every workload is reproducible from its
    seed alone.
    """
    if n <= 0:
        raise SchemaError(f"need a positive item count, got {n}")
    if alpha < 0:
        raise SchemaError(f"zipf alpha must be non-negative, got {alpha}")
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    weights /= weights.sum()
    if rng is not None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        weights = rng.permutation(weights)
    return weights


def allocate_capped(
    weights: np.ndarray,
    total: int,
    capacities: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deal ``total`` items into bins ∝ ``weights``, respecting capacities.

    Overflow beyond a bin's capacity is redistributed proportionally over
    bins with remaining room; if the aggregate capacity is exhausted the
    allocation is truncated (callers size capacities generously).
    """
    weights = np.asarray(weights, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.int64)
    counts = np.zeros(len(weights), dtype=np.int64)
    remaining = int(min(total, capacities.sum()))
    live = weights.copy()
    for _ in range(64):
        if remaining <= 0:
            break
        room = capacities - counts
        live = np.where(room > 0, live, 0.0)
        mass = live.sum()
        if mass <= 0:
            break
        share = rng.multinomial(remaining, live / mass)
        take = np.minimum(share, room)
        counts += take
        remaining -= int(take.sum())
    return counts


def _chunk_coords(
    corner: tuple[int, ...],
    intervals: tuple[int, ...],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count`` distinct coordinates inside one chunk rectangle."""
    capacity = int(np.prod(intervals))
    chosen = rng.choice(capacity, size=min(count, capacity), replace=False)
    coords = np.empty((len(chosen), len(intervals)), dtype=np.int64)
    remaining = chosen
    for axis in range(len(intervals) - 1, -1, -1):
        coords[:, axis] = corner[axis] + remaining % intervals[axis]
        remaining = remaining // intervals[axis]
    return coords


def _grid_array(
    schema_literal: str,
    chunk_counts: np.ndarray,
    attr_sampler,
    rng: np.random.Generator,
) -> LocalArray:
    """Build an array by drawing ``chunk_counts[c]`` distinct cells in each
    chunk of the schema's grid. ``attr_sampler(n) -> {name: column}``."""
    schema = parse_schema(schema_literal)
    if len(chunk_counts) != schema.n_chunks:
        raise SchemaError(
            f"chunk_counts covers {len(chunk_counts)} chunks but schema has "
            f"{schema.n_chunks}"
        )
    intervals = tuple(d.chunk_interval for d in schema.dims)
    coord_parts = []
    for chunk_id, count in enumerate(chunk_counts):
        if count <= 0:
            continue
        corner = schema.chunk_corner(chunk_id)
        coord_parts.append(_chunk_coords(corner, intervals, int(count), rng))
    coords = (
        np.concatenate(coord_parts)
        if coord_parts
        else np.empty((0, schema.ndims), dtype=np.int64)
    )
    cells = CellSet(coords, attr_sampler(len(coords)))
    return LocalArray.from_cells(schema, cells)


# ---------------------------------------------------------- merge workloads


def skewed_merge_pair(
    alpha: float,
    cells_per_array: int = 200_000,
    grid: int = 32,
    chunk_interval: int = 200,
    seed: int = 0,
    correlated: bool = False,
    names: tuple[str, str] = ("A", "B"),
) -> tuple[LocalArray, LocalArray]:
    """Two 2-D arrays whose chunk sizes follow Zipf(α) (Sections 6.2.1, 6.4).

    The paper's arrays are ``A<v1:int64,v2:int64>[i=1,64M,2M, j=1,64M,2M]``
    — a 32×32 chunk grid; this generator keeps the grid and the skew sweep
    at laptop scale. ``correlated=True`` gives both arrays the same skew
    placement (adversarial); the default draws independent placements
    (mixed, mostly beneficial under high skew).
    """
    rng = np.random.default_rng(seed)
    extent = grid * chunk_interval
    n_chunks = grid * grid
    capacity = np.full(n_chunks, chunk_interval * chunk_interval, dtype=np.int64)

    weights_a = zipf_weights(n_chunks, alpha, rng)
    weights_b = weights_a if correlated else zipf_weights(n_chunks, alpha, rng)
    counts_a = allocate_capped(weights_a, cells_per_array, capacity, rng)
    counts_b = allocate_capped(weights_b, cells_per_array, capacity, rng)

    def sampler(n: int) -> dict:
        return {
            "v1": rng.integers(0, 1_000_000, n),
            "v2": rng.integers(0, 1_000_000, n),
        }

    literal = (
        "{name}<v1:int64, v2:int64>"
        f"[i=1,{extent},{chunk_interval}, j=1,{extent},{chunk_interval}]"
    )
    array_a = _grid_array(literal.format(name=names[0]), counts_a, sampler, rng)
    array_b = _grid_array(literal.format(name=names[1]), counts_b, sampler, rng)
    return array_a, array_b


# ----------------------------------------------------------- hash workloads


def skewed_hash_pair(
    alpha: float,
    cells_per_array: int = 200_000,
    n_keys: int = 1024,
    grid: int = 32,
    chunk_interval: int = 200,
    selectivity: float = 0.0001,
    spatial_correlation: float | None = None,
    seed: int = 0,
    names: tuple[str, str] = ("A", "B"),
) -> tuple[LocalArray, LocalArray]:
    """Two arrays whose A:A join-key frequencies follow Zipf(α) (§6.2.2).

    Key frequencies drive hash-bucket (join unit) sizes; the two sides use
    nearly disjoint key domains so the join has the paper's very low
    selectivity (~1e-4), exercising extreme size differences between the
    two sides of a join unit. ``spatial_correlation`` is the fraction of a
    key's cells placed in the key's "home" chunk — it spreads every join
    unit over all nodes while keeping per-node slice sizes uneven. By
    default it tracks α the way the paper's slice sizes do ("the join
    unit AND slice sizes follow a Zipfian distribution"): the top slice's
    share of a Zipf(α) spread over a nominal 12 locations.
    """
    rng = np.random.default_rng(seed)
    if spatial_correlation is None:
        spatial_correlation = float(np.max(zipf_weights(12, alpha)))
    extent = grid * chunk_interval
    n_chunks = grid * grid

    target_matches = selectivity * 2 * cells_per_array
    freq_a = np.maximum(
        1, np.round(zipf_weights(n_keys, alpha, rng) * cells_per_array)
    ).astype(np.int64)
    freq_b = np.maximum(
        1, np.round(zipf_weights(n_keys, alpha, rng) * cells_per_array)
    ).astype(np.int64)

    # The two sides use disjoint key domains plus one dedicated shared
    # key carrying √target cells on each side, so the join emits ≈ target
    # matches independent of the skew level.
    key_a = np.arange(n_keys, dtype=np.int64)
    key_b = np.arange(n_keys, dtype=np.int64) + n_keys
    match_cells = max(1, int(round(np.sqrt(target_matches))))
    shared_key = np.int64(3 * n_keys)
    freq_a = np.append(freq_a, match_cells)
    freq_b = np.append(freq_b, match_cells)
    key_a = np.append(key_a, shared_key)
    key_b = np.append(key_b, shared_key)

    # Each key has a "home" chunk holding ``spatial_correlation`` of its
    # cells. Homes are drawn from a Zipf(min(α, 0.6)) distribution over a
    # FIXED chunk order shared by both arrays: as α grows, the hot spatial
    # regions (and under block placement, the hot nodes) concentrate —
    # the paper's "skew both in the join unit sizes and their distribution
    # across nodes". At α = 0 homes are uniform and no node is hot.
    home_weights = zipf_weights(n_chunks, min(alpha, 0.6))

    def build(name: str, freq: np.ndarray, key_ids: np.ndarray) -> LocalArray:
        literal = (
            f"{name}<v1:int64, v2:int64>"
            f"[i=1,{extent},{chunk_interval}, j=1,{extent},{chunk_interval}]"
        )
        schema = parse_schema(literal)
        total = int(freq.sum())
        # Spatial placement: home chunk per key plus a uniform component.
        per_key_home = rng.binomial(freq, spatial_correlation)
        chunk_of_cell = np.empty(total, dtype=np.int64)
        key_of_cell = np.repeat(np.arange(len(freq)), freq)
        home = rng.choice(n_chunks, size=len(freq), p=home_weights)
        cursor = 0
        for key in range(len(freq)):
            n_home = int(per_key_home[key])
            n_total = int(freq[key])
            chunk_of_cell[cursor : cursor + n_home] = home[key]
            chunk_of_cell[cursor + n_home : cursor + n_total] = rng.integers(
                0, n_chunks, n_total - n_home
            )
            cursor += n_total
        # Coordinates: random positions inside each cell's chunk (collisions
        # in coordinate space are acceptable for A:A workloads — the join
        # ignores coordinates).
        corners = schema.chunk_corners(np.arange(n_chunks))
        offsets = rng.integers(0, chunk_interval, size=(total, 2))
        coords = corners[chunk_of_cell] + offsets
        v1 = key_ids[key_of_cell]
        v2 = v1 * 7 + 1
        cells = CellSet(coords, {"v1": v1, "v2": v2})
        return LocalArray.from_cells(schema, cells)

    return build(names[0], freq_a, key_a), build(names[1], freq_b, key_b)


# ---------------------------------------------------- selectivity workloads


def selectivity_pair(
    selectivity: float,
    n_cells: int = 20_000,
    n_chunks: int = 32,
    seed: int = 0,
    names: tuple[str, str] = ("A", "B"),
) -> tuple[LocalArray, LocalArray]:
    """Two 1-D arrays whose A:A join emits ``selectivity × (n_α+n_β)``
    cells (the Section 6.1 logical-planning workload).

    For selectivity ≤ 0.5 a fraction of values match one-to-one; above
    that every value appears ``g = 2×selectivity`` times on each side so
    each match fans out g² ways.
    """
    rng = np.random.default_rng(seed)
    target = selectivity * 2 * n_cells
    # All values stay within [1, n_cells] so that an output dimension over
    # the value domain (the paper's C<i,j>[v]) can hold every match.
    if selectivity <= 0.5:
        matched = int(round(target))
        # Partition a shuffled value domain into matched values and two
        # disjoint unmatched pools. The shuffle interleaves all three sets
        # uniformly over [1, n], so range partitioning (rechunk) cannot
        # separate non-matching data for free.
        domain = rng.permutation(np.arange(1, n_cells + 1, dtype=np.int64))
        matched_values = domain[:matched]
        rest = n_cells - matched
        half = max(rest // 2, 1)
        pool_a = domain[matched : matched + half]
        pool_b = domain[matched + half :]
        values_a = np.concatenate([matched_values, np.resize(pool_a, rest)])[
            :n_cells
        ]
        values_b = np.concatenate(
            [matched_values, np.resize(pool_b if len(pool_b) else pool_a, rest)]
        )[:n_cells]
    else:
        group = max(int(round(2 * selectivity)), 1)
        n_groups = max(n_cells // group, 1)
        # Spread the group values uniformly over [1, n] so that range
        # partitioning sees balanced chunks at every selectivity.
        domain = rng.permutation(np.arange(1, n_cells + 1, dtype=np.int64))
        group_values = domain[:n_groups]
        values_a = np.repeat(group_values, group)[:n_cells]
        values_b = values_a.copy()
        short = n_cells - len(values_a)
        if short > 0:
            # Disjoint filler values drawn from outside the group set.
            filler_a = domain[n_groups % len(domain)] if n_groups < len(domain) else 1
            filler_b = (
                domain[(n_groups + 1) % len(domain)]
                if n_groups + 1 < len(domain)
                else 2
            )
            values_a = np.concatenate(
                [values_a, np.full(short, filler_a, dtype=np.int64)]
            )
            values_b = np.concatenate(
                [values_b, np.full(short, filler_b, dtype=np.int64)]
            )
    rng.shuffle(values_a)
    rng.shuffle(values_b)

    interval = max(n_cells // n_chunks, 1)
    coords = np.arange(1, n_cells + 1, dtype=np.int64).reshape(-1, 1)
    schema_a = parse_schema(f"{names[0]}<v:int64>[i=1,{n_cells},{interval}]")
    schema_b = parse_schema(f"{names[1]}<w:int64>[j=1,{n_cells},{interval}]")
    array_a = LocalArray.from_cells(schema_a, CellSet(coords, {"v": values_a}))
    array_b = LocalArray.from_cells(schema_b, CellSet(coords, {"w": values_b}))
    return array_a, array_b


# ------------------------------------------------------ multiway workloads


def _as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _keyed_array(
    name: str, attrs: dict[str, np.ndarray], n_chunks: int
) -> LocalArray:
    """1-D array over a regular grid carrying the given key columns."""
    n_cells = len(next(iter(attrs.values())))
    interval = max(n_cells // n_chunks, 1)
    decl = ", ".join(f"{attr}:int64" for attr in attrs)
    schema = parse_schema(f"{name}<{decl}>[i=1,{n_cells},{interval}]")
    coords = np.arange(1, n_cells + 1, dtype=np.int64).reshape(-1, 1)
    return LocalArray.from_cells(schema, CellSet(coords, attrs))


def _own_keys(
    n_cells: int, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """A uniform key column where every domain value appears exactly
    ``fanout`` times (shuffled): the referenced side of a bounded join."""
    domain = max(n_cells // fanout, 1)
    keys = np.resize(np.arange(domain, dtype=np.int64), n_cells)
    rng.shuffle(keys)
    return keys


def _foreign_keys(
    n_cells: int,
    referenced_cells: int,
    fanout: int,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A Zipf(α)-skewed key column drawn from the referenced side's key
    domain. Skew concentrates *which* keys are hot (uneven join units)
    without changing the per-cell match count (always ``fanout``)."""
    domain = max(referenced_cells // fanout, 1)
    weights = zipf_weights(domain, alpha, rng)
    return rng.choice(domain, size=n_cells, p=weights).astype(np.int64)


def chain_arrays(
    n_arrays: int,
    alpha: float,
    cells_per_array: int = 4_000,
    fanout: int = 2,
    n_chunks: int = 16,
    rng: np.random.Generator | int = 0,
    names: tuple[str, ...] | None = None,
) -> list[LocalArray]:
    """A chain-schema pipeline workload: T0 ⋈ T1 ⋈ … ⋈ T(M-1).

    Array ``Tm`` carries a uniform *own* key ``k{m}`` (every value appears
    exactly ``fanout`` times) and a Zipf(α) *foreign* key ``k{m+1}`` drawn
    from the next array's own-key domain; the join predicate is
    ``Tm.k{m+1} = T{m+1}.k{m+1}``. Every foreign-key occurrence matches
    exactly ``fanout`` cells, so an M-array chain emits
    ``cells_per_array × fanout^(M-1)`` cells at *every* α — skew moves
    which join units are heavy, never the output size. The last array
    additionally carries a ``payload`` column. ``rng`` is an explicit
    generator or integer seed (global RNG state is never touched).
    """
    if n_arrays < 3:
        raise SchemaError(f"a chain needs at least 3 arrays, got {n_arrays}")
    if names is None:
        names = tuple(f"T{m}" for m in range(n_arrays))
    if len(names) != n_arrays:
        raise SchemaError(
            f"got {len(names)} names for {n_arrays} chain arrays"
        )
    rng = _as_rng(rng)
    arrays = []
    for m, name in enumerate(names):
        attrs = {f"k{m}": _own_keys(cells_per_array, fanout, rng)}
        if m + 1 < n_arrays:
            attrs[f"k{m + 1}"] = _foreign_keys(
                cells_per_array, cells_per_array, fanout, alpha, rng
            )
        else:
            attrs["payload"] = rng.integers(0, 1_000_000, cells_per_array)
        arrays.append(_keyed_array(name, attrs, n_chunks))
    return arrays


def chain_query(
    n_arrays: int, names: tuple[str, ...] | None = None
) -> str:
    """The multi-join statement matching :func:`chain_arrays`."""
    if names is None:
        names = tuple(f"T{m}" for m in range(n_arrays))
    predicates = " AND ".join(
        f"{names[m]}.k{m + 1} = {names[m + 1]}.k{m + 1}"
        for m in range(n_arrays - 1)
    )
    return (
        f"SELECT {names[0]}.k0, {names[-1]}.payload "
        f"FROM {', '.join(names)} WHERE {predicates}"
    )


def star_arrays(
    n_dims: int,
    alpha: float,
    fact_cells: int = 4_000,
    dim_cells: int = 1_000,
    fanout: int = 2,
    n_chunks: int = 16,
    rng: np.random.Generator | int = 0,
    names: tuple[str, ...] | None = None,
) -> list[LocalArray]:
    """A star-schema pipeline workload: fact ⋈ D0 ⋈ … ⋈ D(K-1).

    The fact array ``F`` carries one Zipf(α) foreign key ``d{i}`` per
    dimension plus a ``measure`` column; dimension ``Di`` carries a
    uniform own key ``d{i}`` (each value exactly ``fanout`` times) and a
    payload ``p{i}``. Joining all K dimensions emits
    ``fact_cells × fanout^K`` cells independent of α. The first returned
    array is the fact. ``rng`` is an explicit generator or integer seed.
    """
    if n_dims < 2:
        raise SchemaError(f"a star needs at least 2 dimensions, got {n_dims}")
    if names is None:
        names = ("F",) + tuple(f"D{i}" for i in range(n_dims))
    if len(names) != n_dims + 1:
        raise SchemaError(
            f"got {len(names)} names for a fact plus {n_dims} dimensions"
        )
    rng = _as_rng(rng)
    fact_attrs = {
        f"d{i}": _foreign_keys(fact_cells, dim_cells, fanout, alpha, rng)
        for i in range(n_dims)
    }
    fact_attrs["measure"] = rng.integers(0, 1_000_000, fact_cells)
    arrays = [_keyed_array(names[0], fact_attrs, n_chunks)]
    for i in range(n_dims):
        arrays.append(
            _keyed_array(
                names[i + 1],
                {
                    f"d{i}": _own_keys(dim_cells, fanout, rng),
                    f"p{i}": rng.integers(0, 1_000_000, dim_cells),
                },
                n_chunks,
            )
        )
    return arrays


def star_query(n_dims: int, names: tuple[str, ...] | None = None) -> str:
    """The multi-join statement matching :func:`star_arrays`."""
    if names is None:
        names = ("F",) + tuple(f"D{i}" for i in range(n_dims))
    fact = names[0]
    predicates = " AND ".join(
        f"{fact}.d{i} = {names[i + 1]}.d{i}" for i in range(n_dims)
    )
    selected = ", ".join(
        [f"{fact}.measure"] + [f"{names[i + 1]}.p{i}" for i in range(n_dims)]
    )
    return f"SELECT {selected} FROM {', '.join(names)} WHERE {predicates}"
