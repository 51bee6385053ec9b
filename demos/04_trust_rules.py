"""The hiring Trust Rules, exactly as published, on three applicants.

Every rule is a ratio of record fields; degenerate denominators make a
ratio undefined (and reported as such) instead of silently zero.  The last
section reproduces the claimed equivalence of a prior conviction and
small-town residency: exact arithmetic shows it is a rounding artifact.
"""

from fractions import Fraction

from ravkit import (
    ApplicantRecord,
    consistency_ratios,
    porosity_rule,
    ratios_equal,
    score_applicant,
)

applicants = [
    ApplicantRecord(
        applicant_id="steady-career",
        months_unemployed=2,
        months_eligible=180,
        age_years=41,
        references_positive=2,  # acme, initech
        past_employer_count=2,
        hours_alone_per_day=Fraction(1),
        working_hours_per_day=Fraction(8),
        employees_in_community=2,
        community_population=240000,
    ),
    ApplicantRecord(
        applicant_id="night-shift",
        months_unemployed=6,
        months_eligible=48,
        age_years=29,
        references_neutral=1,  # acme
        past_employer_count=3,
        hours_alone_per_day=Fraction(7),
        working_hours_per_day=Fraction(8),
        employees_in_community=0,
        community_population=9000,
    ),
    ApplicantRecord(
        applicant_id="small-town",
        months_unemployed=0,
        months_eligible=60,
        age_years=35,
        references_positive=1,  # mill
        past_employer_count=1,
        hours_alone_per_day=Fraction(0),
        working_hours_per_day=Fraction(8),
        employees_in_community=156,
        community_population=5000,
    ),
]

for record in applicants:
    for mode in ("average", "max"):
        results, score = score_applicant(record, mode=mode)
        print(f"{record.applicant_id:<14} {mode:<8} {score.combined} "
              f"= {float(score.combined):.5f}")
    print()

print("the published 1/32 equivalence, exactly:")
conviction = ApplicantRecord(criminal_offenses_known=1, age_years=50)
community = ApplicantRecord(employees_in_community=156, community_population=5000)
offense_ratio = consistency_ratios(conviction)[1].value
community_ratio = porosity_rule(community).value
print(f"  1 conviction / 32 adult years     = {offense_ratio} = {float(offense_ratio)}")
print(f"  156 colleagues / 5000 townspeople = {community_ratio} = {float(community_ratio)}")
print(f"  equal at tolerance 1e-3: {ratios_equal(offense_ratio, community_ratio, 1e-3)}")
print(f"  equal exactly:           {ratios_equal(offense_ratio, community_ratio)}")
