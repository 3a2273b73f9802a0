package autovalidate

import (
	"autovalidate/internal/domain"
	"autovalidate/internal/pattern"
	"autovalidate/internal/validate"
)

// Semantic-domain validation, re-exported from internal/domain: a
// registry of validators that reject well-formed-but-invalid values
// (broken check digits, impossible dates, bad UUID variant bits) the
// syntactic pattern cannot see.
type (
	// DomainValidator is one semantic value domain (checksum, RFC
	// grammar, calendar, accession scheme, learned vocabulary).
	DomainValidator = domain.Validator
	// DomainDetection is a proposed domain for a column sample.
	DomainDetection = domain.Detection
)

// RegisterDomainValidator adds a custom validator to the process-wide
// domain registry (built-ins register themselves from init()). A nil
// validator, empty name, or name collision is rejected with an error.
func RegisterDomainValidator(v DomainValidator) error { return domain.Register(v) }

// DomainValidators lists the registered validators, priority first.
func DomainValidators() []DomainValidator { return domain.Validators() }

// LookupDomainValidator finds a registered validator by name.
func LookupDomainValidator(name string) (DomainValidator, bool) { return domain.Lookup(name) }

// DetectDomain proposes the best-matching built-in domain for a column
// sample (≥90% of sampled values must validate).
func DetectDomain(values []string) (DomainDetection, bool) { return domain.Detect(values) }

// ProposeDomain is DetectDomain plus the learned closed-vocabulary
// fallback for categorical columns.
func ProposeDomain(values []string) (DomainDetection, bool) { return domain.Propose(values) }

// NewVocabularyValidator builds a closed-vocabulary DomainValidator
// over the given words — the reconstruction path for a persisted
// vocabulary domain.
func NewVocabularyValidator(words []string) DomainValidator { return domain.NewVocabulary(words) }

// LoadRule reads a pattern rule saved with Rule.Save.
func LoadRule(path string) (*Rule, error) { return validate.LoadRule(path) }

// LoadRuleSet reads a rule set saved with RuleSet.Save.
func LoadRuleSet(path string) (*RuleSet, error) { return validate.LoadRuleSet(path) }

// ParsePattern parses the canonical pattern notation (the format
// produced by Pattern.String and stored by Rule.Save).
func ParsePattern(s string) (Pattern, error) { return pattern.Parse(s) }
