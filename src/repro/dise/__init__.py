"""DISE: Dynamic Instruction Stream Editing (paper Section 3).

DISE is a hardware widget sitting between fetch and execute that rewrites
the *dynamic* instruction stream according to *productions* — rewriting
rules of the form ``pattern => parameterized replacement sequence``.

* :mod:`repro.dise.pattern` -- single-instruction pattern specifications
  with most-specific-wins semantics.
* :mod:`repro.dise.template` -- replacement-sequence templates with the
  paper's directives (``T.OP``, ``T.RD``, ``T.RS1``, ``T.RS2``,
  ``T.IMM``, ``T.INST``).
* :mod:`repro.dise.production` -- a pattern plus its replacement.
* :mod:`repro.dise.registers` -- the DISE-private register file.
* :mod:`repro.dise.engine` -- the expansion engine consulted on every
  fetched instruction; it matches the resident productions only.
* :mod:`repro.dise.controller` -- the production table's one owner:
  capacity virtualization, the OS access policy, and which productions
  are resident.
"""

from repro.dise.pattern import Pattern
from repro.dise.template import T, TemplateInstruction, template
from repro.dise.production import Production
from repro.dise.registers import DiseRegisterFile
from repro.dise.engine import DiseEngine
from repro.dise.controller import DiseController

__all__ = [
    "Pattern",
    "T",
    "TemplateInstruction",
    "template",
    "Production",
    "DiseRegisterFile",
    "DiseEngine",
    "DiseController",
]
