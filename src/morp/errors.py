"""Exception hierarchy shared across the package.

Every error carries a stable machine-readable ``code`` plus an optional
``context`` dict so the CLI can emit structured error JSON.
"""

from __future__ import annotations


class MorpError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json_obj(self):
        return {"code": self.code, "message": self.message, "context": self.context}


class ContractViolation(MorpError):
    """A caller broke a documented precondition or type invariant."""

    code = "contract_violation"


class FormatError(MorpError):
    """Bad magic bytes or otherwise unparseable binary input."""

    code = "format_error"


class TruncationError(MorpError):
    """Binary payload shorter than its header claims."""

    code = "truncation_error"


class DataQualityError(MorpError):
    """Loaded data violates a quality invariant (non-finite, zero rows)."""

    code = "data_quality_error"


class VersionError(MorpError):
    """Unknown format version."""

    code = "version_error"


class RangeError(MorpError):
    """A value is outside its documented range."""

    code = "range_error"


class ReferentialError(MorpError):
    """A manifest reference does not resolve."""

    code = "referential_error"


class PredictorError(MorpError):
    """A proposal predictor violated its contract."""

    code = "predictor_error"


class ConfigError(MorpError):
    """An option value from the environment or a config file does not parse."""

    code = "config_error"


class SpecError(MorpError):
    """An infeasible synthetic-corpus specification."""

    code = "spec_error"
