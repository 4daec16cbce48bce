"""Untyped lambda calculus: lambda, application, beta reduction."""

from __future__ import annotations

from ..reduction import beta
from ..signature import SlotKind, annotate_signature, make_signature
from .base import Language

LAM = "Lam"
APP = "App"

signature = make_signature(
    "ulc",
    [
        (LAM, [SlotKind.SCOPE]),
        (APP, [SlotKind.TERM, SlotKind.TERM]),
    ],
)


typed_signature = annotate_signature(signature)

language = Language(
    name="ulc",
    signature=signature,
    reducer={APP: beta()},
    typed_signature=typed_signature,
    infer_rules={},
    shapes=(APP,),
)
