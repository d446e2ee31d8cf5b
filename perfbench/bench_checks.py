"""Output checks of the benchmark.

Each check is a pure function that returns a list of violation
messages (empty when the output is correct), so the tests can feed it
deliberately broken inputs. None of them compares against a golden
partition: a change to the clustering decisions is legitimate, and
its quality is measured (``f1_vs_batch``), not pinned.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping


def check_partition(
    tenant: str, partition: Iterable[Iterable[int]], live_ids: set[int]
) -> list[str]:
    """The served partition is disjoint and covers exactly ``live_ids``."""
    errors: list[str] = []
    seen: set[int] = set()
    for group in partition:
        group = set(group)
        if not group:
            errors.append(f"{tenant}: empty cluster in the served partition")
        overlap = seen & group
        if overlap:
            errors.append(
                f"{tenant}: ids {sorted(overlap)[:5]} are in more than one cluster"
            )
        seen |= group
    missing = live_ids - seen
    extra = seen - live_ids
    if missing:
        errors.append(
            f"{tenant}: {len(missing)} live ids missing from the partition, "
            f"e.g. {sorted(missing)[:5]}"
        )
    if extra:
        errors.append(
            f"{tenant}: {len(extra)} ids served that are not live, "
            f"e.g. {sorted(extra)[:5]}"
        )
    return errors


def check_write_visible(
    tenant: str,
    cluster_of: Callable[[int], object],
    written: Iterable[int],
    removed: Iterable[int],
) -> list[str]:
    """After a write, written ids resolve and removed ids return ``None``."""
    errors = [
        f"{tenant}: id {obj_id} was written but cluster_of returned None"
        for obj_id in written
        if cluster_of(obj_id) is None
    ]
    errors.extend(
        f"{tenant}: id {obj_id} was removed but cluster_of still resolves it"
        for obj_id in removed
        if cluster_of(obj_id) is not None
    )
    return errors


def check_accounting(accepted: int, refused: int, attempted: int) -> list[str]:
    """Every attempted write op was either accepted or refused."""
    if accepted + refused != attempted:
        return [
            f"accounting: {accepted} accepted + {refused} refused != "
            f"{attempted} attempted"
        ]
    return []


def check_same_partitions(
    what: str,
    expected: Mapping[str, frozenset],
    actual: Mapping[str, frozenset],
) -> list[str]:
    """Per-tenant partitions are equal (replica ≡ primary, recovered ≡ live)."""
    errors = []
    for tenant in sorted(set(expected) | set(actual)):
        want = expected.get(tenant)
        have = actual.get(tenant)
        if want != have:
            detail = ""
            if want is not None and have is not None:
                diff = set(want) ^ set(have)
                detail = f" ({len(diff)} clusters differ)"
            errors.append(f"{what}: tenant {tenant} partition differs{detail}")
    return errors
