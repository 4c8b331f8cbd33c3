"""Sensor-hub middleware: schema self-description, pluggable decode
strategies (generic interpretation vs compiled plans), a TCP registration
and streaming server, and a plugin-hosting hub daemon."""

from .errors import HubStreamError
from .hub import (
    FilterPolicy,
    GracePolicy,
    RealClock,
    SensorHub,
    SensorPlugin,
    SimClock,
)
from .sdd import (
    HubContext,
    MicroSDD,
    SchemaFingerprint,
    SensorDescriptor,
    ValueType,
    build_musdd,
    fingerprint,
    parse_musdd,
    serialize_musdd,
)
from .server import MiddlewareCore, MiddlewareServer
from .simsensors import SimKind, SimSpec, make_sim_plugin, parse_manifest
from .vsd import VirtualSensorDefinition
from .wrapper import (
    PlanRepository,
    Strategy,
    StreamRecord,
    WrapperPlan,
    compile_plan,
    decode_record,
)

__all__ = [
    "HubStreamError",
    "FilterPolicy",
    "GracePolicy",
    "RealClock",
    "SensorHub",
    "SensorPlugin",
    "SimClock",
    "HubContext",
    "MicroSDD",
    "SchemaFingerprint",
    "SensorDescriptor",
    "ValueType",
    "build_musdd",
    "fingerprint",
    "parse_musdd",
    "serialize_musdd",
    "MiddlewareCore",
    "MiddlewareServer",
    "SimKind",
    "SimSpec",
    "make_sim_plugin",
    "parse_manifest",
    "VirtualSensorDefinition",
    "PlanRepository",
    "Strategy",
    "StreamRecord",
    "WrapperPlan",
    "compile_plan",
    "decode_record",
]

__version__ = "0.1.0"
