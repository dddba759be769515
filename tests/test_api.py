"""The public names re-exported by the package keep their signatures."""

import inspect

import symorbit

PINNED = {
    "DiffStats": "(q: 'int', c: 'int', r: 'int') -> None",
    "Indecomposable": "(kind: ForwardRef('str'), k: ForwardRef('int'))",
    "LemmaReport": "(lemma_id: 'str', n_range: 'tuple[int, int]', instances_checked: 'int',"
    " counterexamples: 'list[dict]', elapsed_s: 'float', extras: 'dict | None' = None) -> None",
    "NormalityVerdict": "(lam: 'Partition', normal: 'bool', witness: 'int | None',"
    " gap_certificate: 'Fraction | None') -> None",
    "StrataCheck": "(lam: 'Partition', status: 'str', reason: 'str | None', instances: 'int',"
    " min_gap: 'Fraction | None', counterexamples: 'list[dict]' = <factory>,"
    " cases: 'dict[str, int] | None' = None, flagged: 'list[dict] | None' = None) -> None",
    "StrataSpec": "(lam: 'Partition', t: 'int', dims: 'tuple[int, ...]') -> None",
    "aug": "(base: 'Diagram', da: 'int', db: 'int') -> 'list[Diagram]'",
    "aug_any": "(base: 'Diagram', da: 'int', db: 'int') -> 'list[Diagram]'",
    "check_ci_condition": "(lam: 'Partition', bound: 'int | None' = None) -> 'StrataCheck'",
    "check_normality_gap": "(lam: 'Partition', bound: 'int | None' = None) -> 'StrataCheck'",
    "d_lists": "(lam: 'Partition', mu: 'Partition')"
    " -> 'tuple[tuple[int, ...], tuple[int, ...]]'",
    "degeneration_chain": "(lam: 'Partition', mu: 'Partition') -> 'list[Partition]'",
    "delta_stat": "(diagram: 'Diagram') -> 'int'",
    "diff_stats": "(lam: 'Partition', mu: 'Partition') -> 'DiffStats'",
    "dim_M": "(lam: 'Partition') -> 'int'",
    "dim_N": "(lam: 'Partition') -> 'Fraction'",
    "dim_orbit": "(lam: 'Partition') -> 'Fraction'",
    "dim_stratum": "(tau: 'TauString', spec: 'StrataSpec') -> 'Fraction'",
    "dominance_covers": "(n: 'int') -> 'list[tuple[Partition, Partition]]'",
    "dominates": "(lam: 'Partition', mu: 'Partition') -> 'bool'",
    "dual": "(lam: 'Partition') -> 'Partition'",
    "enumerate_below": "(lam: 'Partition') -> 'list[Partition]'",
    "enumerate_lambda": "(lam: 'Partition', bound: 'int | None' = None) -> 'list[TauString]'",
    "enumerate_partitions": "(n: 'int', bound: 'int' = 64) -> 'list[Partition]'",
    "format_diagram": "(diagram: 'Diagram') -> 'str'",
    "format_partition": "(lam: 'Partition') -> 'str'",
    "has_property_P": "(diagram: 'Diagram') -> 'bool'",
    "is_normal": "(lam: 'Partition', certify: 'bool' = False, bound: 'int | None' = None)"
    " -> 'NormalityVerdict'",
    "is_ortho_symmetric": "(diagram: 'Diagram') -> 'bool'",
    "is_valid_tau_string": "(tau: 'TauString', spec: 'StrataSpec') -> 'bool'",
    "minimum_stratum_gap": "(lam: 'Partition', bound: 'int | None' = None)"
    " -> 'Fraction | None'",
    "o_stat": "(diagram: 'Diagram') -> 'int'",
    "orbit_partition": "(tau: 'TauString') -> 'Partition'",
    "parse_diagram": "(text: 'str') -> 'Diagram'",
    "parse_partition": "(text: 'str') -> 'Partition'",
    "run_all": "(n_max: 'int | None' = None, max_counterexamples: 'int' = 10)"
    " -> 'list[LemmaReport]'",
    "run_suite": "(lemma_id: 'str', n_max: 'int | None' = None,"
    " max_counterexamples: 'int' = 10) -> 'LemmaReport'",
    "s_step": "(lam: 'Partition', s: 'int') -> 'bool'",
    "sigma_zero": "(mu: 'Partition', t: 'int') -> 'TauString'",
    "strata_report": "(lam: 'Partition', bound: 'int | None' = None) -> 'dict'",
    "strata_spec": "(lam: 'Partition') -> 'StrataSpec'",
    "substring_count": "(diagram: 'Diagram', h: 'int', leading: 'str') -> 'int'",
    "tau_zero": "(lam: 'Partition') -> 'TauString'",
}


def public_callables():
    return {
        name: obj
        for name, obj in vars(symorbit).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }


def test_public_names_pinned():
    assert sorted(public_callables()) == sorted(PINNED)


def test_signatures_pinned():
    got = {name: str(inspect.signature(obj)) for name, obj in public_callables().items()}
    assert got == PINNED
