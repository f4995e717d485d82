"""Pinned content hashes of generated traces.

Trace generation is seeded, and its RNG draw order is part of the
contract: run keys, stored results and the benchmark's golden digests all
assume that a spec always yields the same instructions.  These hashes
cover every field of every :class:`Instruction`, so any change to what
the generators draw, or in which order, fails here first.  Update a hash
only for an intended change of the generated workloads.
"""

import dataclasses
import hashlib

import pytest

from repro.workloads.cfg import ProgramBuilder, Terminator, TermKind
from repro.workloads.generators import WorkloadSpec, make_workload
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import BranchType, Instruction

_FIELDS = (
    "pc", "size", "branch_type", "taken", "target", "is_load", "is_store",
    "data_addr",
)


def trace_digest(trace) -> str:
    """sha256 over the trace identity and all fields of every record."""
    digest = hashlib.sha256(
        f"{trace.name}|{trace.category}|{len(trace)}\n".encode()
    )
    for inst in trace.instructions:
        assert type(inst) is Instruction
        assert type(inst.branch_type) is BranchType
        assert type(inst.taken) is bool
        assert type(inst.is_load) is bool and type(inst.is_store) is bool
        digest.update(
            b"%d,%d,%d,%d,%d,%d,%d,%d\n"
            % (
                inst.pc, inst.size, inst.branch_type, inst.taken,
                inst.target, inst.is_load, inst.is_store, inst.data_addr,
            )
        )
    return digest.hexdigest()


def test_digest_covers_every_instruction_field():
    assert tuple(f.name for f in dataclasses.fields(Instruction)) == _FIELDS


#: (category, seed, instructions) -> digest.  The 12k-instruction traces
#: at two more seeds are long enough that every hot draw of the
#: generators (function shapes, callee picks, data addresses) runs
#: thousands of times.
CVP_HASHES = {
    ("crypto", 1000, 5000): "4245fd92bb1d3f092afe8d5bcb4249f5fd72fe2d91255fcc4cf5700fdcc65862",
    ("int", 2000, 5000): "065c4a440a03bcc4db4b91b6d76d75f316476ce28500f059aca8a9eb75615e3d",
    ("fp", 3000, 5000): "5cbc1be5cb36be32e25205f338fddee2d9d7235db75b83540d2ecaa17ed244e1",
    ("srv", 4000, 5000): "f341855d179136e48ce15bd79b0c286499aaf6fe09a88c59dba240c3d4fb630f",
    ("crypto", 7, 12_000): "310d4ce31d60c1f4b89d1748a0f0a9438ab5736ec0b3bbc95be8547a4dbb082b",
    ("crypto", 4242, 12_000): "4fdab637f127148d6657fdbcdd5863bc6c3a436a7ad76254919cf53c86cabd26",
    ("int", 7, 12_000): "c513960a8c9510e77f971c38611826047837482b0b2fbc023c69e322eabb6081",
    ("int", 4242, 12_000): "bf748def9729739dca147b3343bc8aa6e917d55f4710c11c74885309380cb6be",
    ("fp", 7, 12_000): "7125da5f11210cb49ece28c68e919783749766a82e965e92bddaeffe0f7378eb",
    ("fp", 4242, 12_000): "c79601364e7f5f871338381a86d97b1017405b849cf96e61c0ce2d2f36126629",
    ("srv", 7, 12_000): "8a4b07d4a16821c4fd3911b295b575bac5c47b8a3126c42d75d852414ca5a1fd",
    ("srv", 4242, 12_000): "f0ab4f3393a250867c388f6eaafa10ac8510126ff2b2bfca49c7bdcbd9dc3b1b",
}


def _cvp_case_id(case):
    category, seed, n_instructions = case
    return category if n_instructions == 5000 else f"{category}-{seed}"


@pytest.mark.parametrize("case", list(CVP_HASHES), ids=_cvp_case_id)
def test_cvp_category_trace_is_pinned(case):
    category, seed, n_instructions = case
    spec = WorkloadSpec(
        name=f"{category}_pin", category=category, seed=seed,
        n_instructions=n_instructions,
    )
    assert trace_digest(make_workload(spec)) == CVP_HASHES[case]


MICROSERVICE_SPECS = {
    "single": (WorkloadSpec(
        name="msvc_pin", category="microservice", seed=20_100,
        n_instructions=5000, tenants=("search",),
    ), "63f26265b03e62a87a159046277e0495ff79b4fc410ba517e6150548578e0c51"),
    # ``tenants=None``: the tenant mix itself is drawn from the seed.
    "multi": (WorkloadSpec(
        name="msvc_mix_pin", category="microservice", seed=25_017,
        n_instructions=6000,
    ), "e7df5452d9fbf1af1cff4d93809548ba1340956b451baf406f8b643e351da3e7"),
}


@pytest.mark.parametrize("kind", sorted(MICROSERVICE_SPECS))
def test_microservice_trace_is_pinned(kind):
    spec, expected = MICROSERVICE_SPECS[kind]
    assert trace_digest(make_workload(spec)) == expected


def _builder_program():
    """Every terminator kind, call-depth demotion, unwinding past a call in
    a caller's last block, and an implicit return off a function's end."""
    return (
        ProgramBuilder(entry="main")
        .function("main")
        .block("b0", 6, Terminator(TermKind.COND, target="b2", taken_prob=0.4),
               load_frac=0.3, store_frac=0.2)
        .block("b1", 3, Terminator(TermKind.CALL, target="leaf"))
        .block("b2", 5, Terminator(TermKind.INDIRECT_CALL,
                                   candidates=[("a", 3.0), ("b", 1.0)]))
        .block("b3", 4, Terminator(TermKind.INDIRECT_JUMP,
                                   candidates=[("b0", 1.0), ("b4", 2.0)]))
        .block("b4", 2, Terminator(TermKind.COND, target="b1", taken_prob=0.5))
        .block("b5", 3, Terminator(TermKind.JUMP, target="b6"))
        .block("b6", 2, Terminator(TermKind.RETURN))
        .function("leaf")
        .block("b0", 4, Terminator(TermKind.COND, target="b0", taken_prob=0.6),
               load_frac=0.5, store_frac=0.0)
        .block("b1", 3, Terminator(TermKind.CALL, target="a"))
        .function("a")
        .block("b0", 5, Terminator(TermKind.CALL, target="a"))
        .block("b1", 2, Terminator(TermKind.RETURN), load_frac=0.0,
               store_frac=0.6)
        .function("b")
        .block("b0", 3, Terminator(TermKind.FALLTHROUGH))
        .block("b1", 3, Terminator(TermKind.FALLTHROUGH))
        .build()
    )


def test_builder_program_trace_is_pinned():
    trace = generate_trace(
        _builder_program(), n_instructions=3000, name="builder",
        category="unit", seed=11, max_call_depth=4,
    )
    assert trace_digest(trace) == (
        "6623553e9eee24cb36ac88bdb1f0a8057d01cdf0abff9704a6bd018560503e81"
    )
