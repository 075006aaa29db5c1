"""The homogeneous shortcut and the Moebius family.

For a spray with L and sigma both fiber-homogeneous of the same degree
p > 1, deformability reduces to a single wedge condition d_J L ^ sigma = 0
and the deformation is the root Phi = a L^(1/p) + b. The generic pipeline
reaches the same answer through the slope classification, which is a nice
cross-check; the Moebius problem exercises the rational family instead.
"""

from lagdeform.conditions import DerivedFields, check_homogeneous
from lagdeform.corpus import load_corpus_problem
from lagdeform.pipeline import run_pipeline
from lagdeform.sampling import draw_samples

# --- homogeneous route -----------------------------------------------------
spec = load_corpus_problem("homogeneous")
derived = DerivedFields(spec.spray, spec.lagrangian, spec.params)
samples = draw_samples(spec.plan(), derived.run_guards(spec.sigma), spec.params)
report = check_homogeneous(derived, spec.sigma, samples)
print("degree           =", report.degree)
print("wedge residual   =", f"{report.wedge_residual:.3e}")
print("prescribed Phi   =", report.phi_class.describe())

doc = run_pipeline(spec, mode="verify")
print("generic pipeline :", doc.fit.describe(), "->", doc.verdict)
print(
    "deformed Hessian rank",
    f"{doc.deformed_hessian_report.min_rank} of {spec.n}",
    "(degree-1 Lagrangians are singular)",
)

# --- Moebius route ----------------------------------------------------------
mob = load_corpus_problem("moebius")
mob_doc = run_pipeline(mob, mode="verify")
print()
print("moebius family   :", mob_doc.fit.describe())
print("competing fits   :")
for name, info in sorted(mob_doc.fit.competitors.items()):
    print(f"  {name:12s} residual = {info['residual']:.3e}")
print("verdict          :", mob_doc.verdict, "(both Hessians full rank)")
