"""Workload substrate: instruction traces and synthetic program generators.

The paper evaluates on 959 proprietary Qualcomm CVP traces (crypto, int, fp,
and srv categories) plus four CloudSuite applications.  Those traces are not
publicly available, so this package provides a from-scratch substitute: a
control-flow-graph program model (:mod:`repro.workloads.cfg`), an interpreter
that executes such programs into instruction traces
(:mod:`repro.workloads.synthetic`), and tuned per-category generator suites
(:mod:`repro.workloads.generators`, :mod:`repro.workloads.cloudsuite`).

Exports resolve lazily (see :mod:`repro`): generating a trace loads
neither the importers and converters nor the microservice and CloudSuite
suites.
"""

from repro import _lazy_exports

_LAZY = {
    "BranchType": "repro.workloads.trace",
    "Instruction": "repro.workloads.trace",
    "Trace": "repro.workloads.trace",
    "TraceSalvage": "repro.workloads.trace",
    "read_trace": "repro.workloads.trace",
    "write_trace": "repro.workloads.trace",
    "BasicBlock": "repro.workloads.cfg",
    "Function": "repro.workloads.cfg",
    "Program": "repro.workloads.cfg",
    "ProgramBuilder": "repro.workloads.cfg",
    "CfgInterpreter": "repro.workloads.synthetic",
    "generate_trace": "repro.workloads.synthetic",
    "WorkloadSpec": "repro.workloads.generators",
    "cvp_suite": "repro.workloads.generators",
    "make_workload": "repro.workloads.generators",
    "workload_names": "repro.workloads.generators",
    "cloudsuite_suite": "repro.workloads.cloudsuite",
    "read_champsim_trace": "repro.workloads.champsim",
    "write_champsim_trace": "repro.workloads.champsim",
    "TraceParseError": "repro.workloads.convert",
    "read_text_trace": "repro.workloads.convert",
    "write_text_trace": "repro.workloads.convert",
    "detect_trace_format": "repro.workloads.importers",
    "file_workload_spec": "repro.workloads.importers",
    "load_external_trace": "repro.workloads.importers",
    "trace_file_suite": "repro.workloads.importers",
    "interleave_traces": "repro.workloads.microservice",
    "make_microservice_workload": "repro.workloads.microservice",
    "microservice_suite": "repro.workloads.microservice",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
