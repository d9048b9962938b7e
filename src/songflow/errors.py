"""Shared exception types, one per origin of a failure: `ValidationError`
means outside input is wrong (a `ParseError` is one, with a line number), and
`ContractError` means code inside the program broke a precondition, a program
fault. `cli.main` maps `ValidationError` and `OSError` to exit 2 and lets a
`ContractError` propagate with its traceback; `NumericAbort` is exit 3."""


class ValidationError(ValueError):
    """Outside input is wrong."""


class ParseError(ValidationError):
    """Malformed textual input, carrying the offending line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ContractError(ValueError):
    """Code inside the program broke a precondition: a program fault."""


class NumericAbort(RuntimeError):
    """A numeric run hit NaN/Inf and stopped; carries the failing step."""

    def __init__(self, message: str, step: int | None = None, batch_ids: list[str] | None = None):
        detail = message
        if step is not None:
            detail += f" (step {step})"
        if batch_ids:
            detail += f" [batch: {', '.join(batch_ids)}]"
        super().__init__(detail)
        self.step = step
        self.batch_ids = list(batch_ids) if batch_ids else []
