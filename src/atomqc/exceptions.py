"""Exception types shared across the compiler."""


class AtomqcError(Exception):
    """Base class for all errors raised by this package."""


class NotUnitary(AtomqcError):
    pass


class NotPowerOfTwo(AtomqcError):
    pass


class DimMismatch(AtomqcError):
    pass


class SizeTooLarge(AtomqcError):
    pass


class QubitOutOfRange(AtomqcError):
    pass


class DuplicateQubit(AtomqcError):
    pass


class UnsupportedGate(AtomqcError):
    pass


class LengthNotPowerOfTwo(AtomqcError):
    pass


class SynthesisFailure(AtomqcError):
    """Two-pulse synthesis could not reproduce its input; indicates a bug."""


class QasmSyntaxError(AtomqcError):
    def __init__(self, message, line, col=None):
        loc = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.col = col


class UndeclaredRegister(QasmSyntaxError):
    pass


class SequenceSyntaxError(AtomqcError):
    def __init__(self, message, line):
        super().__init__(f"{message} (line {line})")
        self.line = line


class MatrixFormatError(AtomqcError):
    """A malformed matrix file; ``line``, if known, is the 1-based file line."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line
