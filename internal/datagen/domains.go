// Package datagen synthesizes data lakes that stand in for the paper's
// proprietary corpora: an Enterprise profile modeled on the
// machine-generated domains of Figure 3 (knowledge-base entity ids, ads
// delivery status, proprietary timestamps, GUIDs, locales, ...) and a
// Government profile modeled on the smaller, noisier NationalArchives
// crawl. It also labels every generated column with its ground-truth
// domain, which powers the manually-curated evaluation of Table 2.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"autovalidate/internal/pattern"
	"autovalidate/internal/tokens"
)

// Domain is a generator for one data domain: a named distribution over
// column contents. Gen draws a fresh column of n values; generators pick
// per-column parameters (year ranges, id widths, enum subsets) first, so
// distinct columns of one domain differ the way real lake columns do.
type Domain struct {
	// Name is the ground-truth label recorded on generated columns.
	Name string
	// MachineGenerated marks domains with syntactic patterns; natural-
	// language domains are the ~33% of columns the paper excludes from
	// pattern-based evaluation.
	MachineGenerated bool
	// Gen generates one column of n values.
	Gen func(rng *rand.Rand, n int) []string
	// Ideal is the ground-truth validation pattern for the domain
	// (nil for NL domains). It accepts every value any column of the
	// domain can produce.
	Ideal pattern.Pattern
}

func lit(s string) pattern.Tok                        { return pattern.Lit(s) }
func dN(n int) pattern.Tok                            { return pattern.ClassN(tokens.ClassDigit, n) }
func dPlus() pattern.Tok                              { return pattern.ClassPlus(tokens.ClassDigit) }
func lN(n int) pattern.Tok                            { return pattern.ClassN(tokens.ClassLetter, n) }
func lPlus() pattern.Tok                              { return pattern.ClassPlus(tokens.ClassLetter) }
func aN(n int) pattern.Tok                            { return pattern.ClassN(tokens.ClassAlnum, n) }
func rangeTok(c tokens.Class, lo, hi int) pattern.Tok { return pattern.ClassRange(c, lo, hi) }

var months = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// column fills n values from a per-row generator.
func column(n int, f func(i int) string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// EnterpriseDomains returns the machine-generated domains of the
// Enterprise lake, mirroring Figure 3's proprietary formats.
func EnterpriseDomains() []Domain {
	return []Domain{
		{
			Name: "date_mdy_text", MachineGenerated: true,
			// "Mar 01 2019" — the C1 running example of Figure 2(a).
			Gen: func(rng *rand.Rand, n int) []string {
				baseYear := 2015 + rng.Intn(6)
				span := 1 + rng.Intn(3)
				return column(n, func(int) string {
					return fmt.Sprintf("%s %02d %04d", months[rng.Intn(12)], 1+rng.Intn(28), baseYear+rng.Intn(span))
				})
			},
			Ideal: pattern.New(lN(3), lit(" "), dN(2), lit(" "), dN(4)),
		},
		{
			Name: "timestamp_us", MachineGenerated: true,
			// "9/12/2019 12:01:32 PM" — the C2 example of Figure 2(b);
			// hours and months are unpadded so widths vary in-column.
			Gen: func(rng *rand.Rand, n int) []string {
				year := 2015 + rng.Intn(7)
				return column(n, func(int) string {
					ampm := "AM"
					if rng.Intn(2) == 0 {
						ampm = "PM"
					}
					return fmt.Sprintf("%d/%02d/%04d %d:%02d:%02d %s",
						1+rng.Intn(12), 1+rng.Intn(28), year,
						1+rng.Intn(12), rng.Intn(60), rng.Intn(60), ampm)
				})
			},
			Ideal: pattern.New(dPlus(), lit("/"), dN(2), lit("/"), dN(4), lit(" "),
				dPlus(), lit(":"), dN(2), lit(":"), dN(2), lit(" "), lN(2)),
		},
		{
			Name: "timestamp_24h", MachineGenerated: true,
			// "02/18/2015 00:00:00" — the padded timestamps inside the
			// Figure 8 composite column, also common standalone.
			Gen: func(rng *rand.Rand, n int) []string {
				year := 2012 + rng.Intn(10)
				return column(n, func(int) string {
					return fmt.Sprintf("%02d/%02d/%04d %02d:%02d:%02d",
						1+rng.Intn(12), 1+rng.Intn(28), year,
						rng.Intn(24), rng.Intn(60), rng.Intn(60))
				})
			},
			Ideal: pattern.New(dN(2), lit("/"), dN(2), lit("/"), dN(4), lit(" "),
				dN(2), lit(":"), dN(2), lit(":"), dN(2)),
		},
		{
			Name: "date_iso", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				year := 2014 + rng.Intn(8)
				return column(n, func(int) string {
					return fmt.Sprintf("%04d-%02d-%02d", year+rng.Intn(2), 1+rng.Intn(12), 1+rng.Intn(28))
				})
			},
			Ideal: pattern.New(dN(4), lit("-"), dN(2), lit("-"), dN(2)),
		},
		{
			Name: "time_hms", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return fmt.Sprintf("%d:%02d:%02d", rng.Intn(24), rng.Intn(60), rng.Intn(60))
				})
			},
			Ideal: pattern.New(dPlus(), lit(":"), dN(2), lit(":"), dN(2)),
		},
		{
			Name: "guid", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return fmt.Sprintf("%08x-%04x-%04x-%04x-%012x",
						rng.Uint32(), rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16),
						rng.Int63n(1<<48))
				})
			},
			Ideal: pattern.New(aN(8), lit("-"), aN(4), lit("-"), aN(4), lit("-"), aN(4), lit("-"), aN(12)),
		},
		{
			Name: "kb_entity", MachineGenerated: true,
			// Knowledge-base entity ids like the Bing ids of Figure 3.
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return "/m/0" + randAlnum(rng, 6)
				})
			},
			Ideal: pattern.New(lit("/"), lN(1), lit("/"), aN(7)),
		},
		{
			Name: "ads_status", MachineGenerated: true,
			// Online-ads delivery status enums (Figure 3).
			Gen: func(rng *rand.Rand, n int) []string {
				full := []string{"Delivered", "Bounced", "Clicked", "Queued", "Expired", "Filtered", "Suppressed", "OnBooking", "Prebook"}
				rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
				sub := full[:3+rng.Intn(len(full)-3)]
				return column(n, func(int) string { return sub[rng.Intn(len(sub))] })
			},
			Ideal: pattern.New(lPlus()),
		},
		{
			Name: "locale", MachineGenerated: true,
			// "en-US" locale codes, the data-drift example of the intro.
			Gen: func(rng *rand.Rand, n int) []string {
				langs := []string{"en", "fr", "de", "ja", "pt", "es", "zh", "it", "nl", "sv"}
				regions := []string{"US", "GB", "DE", "FR", "JP", "BR", "CN", "IT", "NL", "SE"}
				return column(n, func(int) string {
					return langs[rng.Intn(len(langs))] + "-" + regions[rng.Intn(len(regions))]
				})
			},
			Ideal: pattern.New(lN(2), lit("-"), lN(2)),
		},
		{
			Name: "ipv4", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(254), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
				})
			},
			Ideal: pattern.New(dPlus(), lit("."), dPlus(), lit("."), dPlus(), lit("."), dPlus()),
		},
		{
			Name: "version", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				major := rng.Intn(20)
				return column(n, func(int) string {
					return fmt.Sprintf("%d.%d.%d", major, rng.Intn(30), rng.Intn(50))
				})
			},
			Ideal: pattern.New(dPlus(), lit("."), dPlus(), lit("."), dPlus()),
		},
		{
			Name: "date_us_slash", MachineGenerated: true,
			// "9/12/2019" — standalone slash dates; also the evidence
			// vertical cuts need to validate the date segment of the
			// 13-token timestamps at τ=8.
			Gen: func(rng *rand.Rand, n int) []string {
				year := 2014 + rng.Intn(8)
				return column(n, func(int) string {
					return fmt.Sprintf("%d/%02d/%04d", 1+rng.Intn(12), 1+rng.Intn(28), year+rng.Intn(2))
				})
			},
			Ideal: pattern.New(dPlus(), lit("/"), dN(2), lit("/"), dN(4)),
		},
		{
			Name: "time_ampm", MachineGenerated: true,
			// "9:07:32 AM" — standalone clock-with-meridiem columns.
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					ampm := "AM"
					if rng.Intn(2) == 0 {
						ampm = "PM"
					}
					return fmt.Sprintf("%d:%02d:%02d %s", 1+rng.Intn(12), rng.Intn(60), rng.Intn(60), ampm)
				})
			},
			Ideal: pattern.New(dPlus(), lit(":"), dN(2), lit(":"), dN(2), lit(" "), lN(2)),
		},
		{
			Name: "hash_hex", MachineGenerated: true,
			// Short hex digests; per-column width drawn from the
			// common 4/8/12-character sizes (checksums, shard ids).
			Gen: func(rng *rand.Rand, n int) []string {
				w := []int{4, 8, 12}[rng.Intn(3)]
				return column(n, func(int) string {
					return fmt.Sprintf("%0*x", w, rng.Int63n(1<<(4*uint(w))))
				})
			},
			Ideal: pattern.New(pattern.ClassRange(tokens.ClassAlnum, 4, 12)),
		},
		{
			Name: "hex_id16", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return fmt.Sprintf("%016x", rng.Uint64()) })
			},
			Ideal: pattern.New(aN(16)),
		},
		{
			Name: "int_id8", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return fmt.Sprintf("%08d", rng.Intn(100000000)) })
			},
			Ideal: pattern.New(dN(8)),
		},
		{
			Name: "int_plain", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				max := []int{1000, 100000, 10000000}[rng.Intn(3)]
				return column(n, func(int) string { return fmt.Sprintf("%d", rng.Intn(max)) })
			},
			Ideal: pattern.New(dPlus()),
		},
		{
			Name: "float_metric", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				prec := 1 + rng.Intn(4)
				return column(n, func(int) string {
					return fmt.Sprintf("%.*f", prec, rng.Float64()*float64([]int{1, 100, 10000}[rng.Intn(3)]))
				})
			},
			Ideal: pattern.New(dPlus(), lit("."), dPlus()),
		},
		{
			Name: "percent", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return fmt.Sprintf("%.1f%%", rng.Float64()*100) })
			},
			Ideal: pattern.New(dPlus(), lit("."), dN(1), lit("%")),
		},
		{
			Name: "session_id", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return "sess_" + randAlnum(rng, 10) }) //nolint:staticcheck
			},
			Ideal: pattern.New(lit("sess"), lit("_"), aN(10)),
		},
		{
			Name: "flag_bool", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				pairs := [][2]string{{"TRUE", "FALSE"}, {"True", "False"}, {"Y", "N"}}
				p := pairs[rng.Intn(len(pairs))]
				return column(n, func(int) string { return p[rng.Intn(2)] })
			},
			Ideal: pattern.New(lPlus()),
		},
		{
			Name: "machine_host", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				dc := []string{"co1", "by2", "db3", "ch1"}[rng.Intn(4)]
				return column(n, func(int) string {
					return fmt.Sprintf("%s-srv-%04d", dc, rng.Intn(10000))
				})
			},
			Ideal: pattern.New(aN(3), lit("-"), lPlus(), lit("-"), dN(4)),
		},
		{
			Name: "composite_booking", MachineGenerated: true,
			// The Figure 8 composite column: float | timestamp |
			// timestamp | status, pipe-concatenated (~25 tokens, far
			// beyond any τ — only vertical cuts can validate it).
			Gen: func(rng *rand.Rand, n int) []string {
				year := 2013 + rng.Intn(8)
				status := []string{"OnBooking", "Prebook", "Confirmed", "Cancelled"}
				return column(n, func(int) string {
					ts := fmt.Sprintf("%02d/%02d/%04d %02d:%02d:%02d",
						1+rng.Intn(12), 1+rng.Intn(28), year, rng.Intn(24), rng.Intn(60), rng.Intn(60))
					ts2 := fmt.Sprintf("%02d/%02d/%04d %02d:%02d:%02d",
						1+rng.Intn(12), 1+rng.Intn(28), year, rng.Intn(24), rng.Intn(60), rng.Intn(60))
					return fmt.Sprintf("%.1f|%s|%s|%s", rng.Float64()*10, ts, ts2, status[rng.Intn(len(status))])
				})
			},
			Ideal: pattern.New(dPlus(), lit("."), dN(1), lit("|"),
				dN(2), lit("/"), dN(2), lit("/"), dN(4), lit(" "), dN(2), lit(":"), dN(2), lit(":"), dN(2), lit("|"),
				dN(2), lit("/"), dN(2), lit("/"), dN(4), lit(" "), dN(2), lit(":"), dN(2), lit(":"), dN(2), lit("|"),
				lPlus()),
		},
		{
			Name: "kv_metric", MachineGenerated: true,
			// "cpu=93.5" style telemetry pairs.
			Gen: func(rng *rand.Rand, n int) []string {
				key := []string{"cpu", "mem", "disk", "net"}[rng.Intn(4)]
				return column(n, func(int) string { return fmt.Sprintf("%s=%.1f", key, rng.Float64()*100) })
			},
			Ideal: pattern.New(lPlus(), lit("="), dPlus(), lit("."), dN(1)),
		},
	}
}

// NLDomains returns the natural-language domains (the ~33% of string
// columns the paper reports as unsuited to pattern validation).
func NLDomains() []Domain {
	first := []string{"Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Hooli", "Vandelay", "Wonka", "Cyberdyne"}
	second := []string{"Industries", "Corporation", "Holdings", "Labs", "Systems", "Partners", "Group", "Logistics"}
	depts := []string{"Human Resources", "Field Sales", "Platform Engineering", "Corporate Finance", "Customer Support", "Legal Affairs", "Product Marketing", "Research and Development"}
	streets := []string{"Main St", "Oak Avenue", "1st Street", "Elm Road", "Park Lane", "Broadway"}
	words := []string{"quarterly", "review", "summary", "pending", "approved", "northern", "region", "priority", "escalated", "archived", "draft", "final"}
	return []Domain{
		{
			Name: "nl_company",
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return first[rng.Intn(len(first))] + " " + second[rng.Intn(len(second))]
				})
			},
		},
		{
			Name: "nl_department",
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return depts[rng.Intn(len(depts))] })
			},
		},
		{
			Name: "nl_address",
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return fmt.Sprintf("%d %s", 1+rng.Intn(9999), streets[rng.Intn(len(streets))])
				})
			},
		},
		{
			Name: "nl_notes",
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					k := 2 + rng.Intn(5)
					parts := make([]string, k)
					for i := range parts {
						parts[i] = words[rng.Intn(len(words))]
					}
					return strings.Join(parts, " ")
				})
			},
		},
	}
}

// GovernmentDomains returns the Government-lake domains: UK-flavored
// machine formats plus heavier NL presence is configured by the profile.
func GovernmentDomains() []Domain {
	return []Domain{
		{
			Name: "uk_date", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				year := 2010 + rng.Intn(10)
				return column(n, func(int) string {
					return fmt.Sprintf("%02d/%02d/%04d", 1+rng.Intn(28), 1+rng.Intn(12), year+rng.Intn(2))
				})
			},
			Ideal: pattern.New(dN(2), lit("/"), dN(2), lit("/"), dN(4)),
		},
		{
			Name: "uk_postcode", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				areas := []string{"SW", "NW", "EC", "LS", "M", "B", "G"}
				return column(n, func(int) string {
					return fmt.Sprintf("%s%d %d%s", areas[rng.Intn(len(areas))], 1+rng.Intn(20), rng.Intn(10), randUpper(rng, 2))
				})
			},
			Ideal: pattern.New(rangeTok(tokens.ClassLetter, 1, 2), dPlus(), lit(" "), dN(1), lN(2)),
		},
		{
			Name: "nhs_number", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return fmt.Sprintf("%03d %03d %04d", rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
				})
			},
			Ideal: pattern.New(dN(3), lit(" "), dN(3), lit(" "), dN(4)),
		},
		{
			Name: "gbp_amount", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string {
					return fmt.Sprintf("£%d.%02d", rng.Intn(100000), rng.Intn(100))
				})
			},
			Ideal: pattern.New(rangeTok(tokens.ClassLetter, 1, 2), dPlus(), lit("."), dN(2)),
		},
		{
			Name: "hospital_code", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return randUpper(rng, 3) + fmt.Sprintf("%02d", rng.Intn(100)) })
			},
			Ideal: pattern.New(lN(3), dN(2)),
		},
		{
			Name: "ward_pct", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				return column(n, func(int) string { return fmt.Sprintf("%.1f", rng.Float64()*100) })
			},
			Ideal: pattern.New(dPlus(), lit("."), dN(1)),
		},
		{
			Name: "uk_year_range", MachineGenerated: true,
			Gen: func(rng *rand.Rand, n int) []string {
				base := 2008 + rng.Intn(10)
				return column(n, func(int) string {
					y := base + rng.Intn(3)
					return fmt.Sprintf("%04d-%02d", y, (y+1)%100)
				})
			},
			Ideal: pattern.New(dN(4), lit("-"), dN(2)),
		},
	}
}

// randAlnum draws k lowercase alphanumeric characters.
func randAlnum(rng *rand.Rand, k int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	var sb strings.Builder
	for i := 0; i < k; i++ {
		sb.WriteByte(alpha[rng.Intn(len(alpha))])
	}
	return sb.String()
}

// randUpper draws k uppercase letters.
func randUpper(rng *rand.Rand, k int) string {
	var sb strings.Builder
	for i := 0; i < k; i++ {
		sb.WriteByte(byte('A' + rng.Intn(26)))
	}
	return sb.String()
}

// DomainByName finds a domain across all builtin sets.
func DomainByName(name string) (Domain, bool) {
	for _, set := range [][]Domain{EnterpriseDomains(), GovernmentDomains(), NLDomains()} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Domain{}, false
}
