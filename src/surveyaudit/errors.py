"""Exception hierarchy shared across the toolkit."""


class SurveyAuditError(Exception):
    """Base class for all toolkit errors."""


# --- data loading ---

class MissingColumn(SurveyAuditError):
    pass


class UnknownCategory(SurveyAuditError):
    def __init__(self, row: int, attribute: str, value: str):
        self.row = row
        self.attribute = attribute
        self.value = value
        super().__init__(
            f"row {row}: value {value!r} is not a known category of {attribute!r}"
        )


class DuplicateRespondent(SurveyAuditError):
    pass


class EmptyDataset(SurveyAuditError):
    pass


class UnknownAttribute(SurveyAuditError):
    pass


# --- prompt rendering ---

class InsufficientExamples(SurveyAuditError):
    pass


class MissingContext(SurveyAuditError):
    pass


class FewshotMismatch(SurveyAuditError):
    pass


# --- model gateway ---

class BackendUnavailable(SurveyAuditError):
    pass


class AuthMissing(SurveyAuditError):
    pass


class RateLimited(SurveyAuditError):
    pass


# --- metrics ---

class EmptyPredictions(SurveyAuditError):
    pass


class UnknownRespondent(SurveyAuditError):
    pass


class AllUnparseable(SurveyAuditError):
    pass


class LengthMismatch(SurveyAuditError):
    pass


class NonpositiveValue(SurveyAuditError):
    pass


# --- regression ---

class Unfittable(SurveyAuditError):
    """A model the data cannot identify; ``columns`` names the design
    columns at fault where the check knows them."""

    def __init__(self, message: str, columns=()):
        self.columns = tuple(columns)
        super().__init__(message)


class CollinearColumn(Unfittable):
    pass


class EmptyDesign(Unfittable):
    pass


class Separation(Unfittable):
    pass


class Singular(Unfittable):
    pass


# --- report bundle ---

class MalformedLog(SurveyAuditError):
    pass


# --- synthetic populations ---

class InvalidSpec(SurveyAuditError):
    pass


# --- experiment orchestration ---

class ConfigError(SurveyAuditError):
    pass
