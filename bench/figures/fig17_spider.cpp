// Fig. 17: the spider-graph values — EDP, ED2P, EDAP and ED2AP of
// every (server, core count) configuration normalized to the 8-Xeon
// configuration, per application.
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 17 - cost metrics normalized to 8 Xeon cores";
  rep.paper_ref = "Sec. 3.5, Fig. 17";
  rep.notes = "< 1 (inner region): configuration beats 8 Xeon cores on that metric";

  bool a8_beats_x2 = true, sort_xeon = true, x4_ed2p = true, edap_leq = true, nb_monotone = true;
  std::string a8_detail, ed2p_detail, edap_detail;

  for (auto id : wl::all_workloads()) {
    core::RunSpec spec;
    spec.workload = id;
    spec.input_size = bench::default_input(id);
    auto sweep = core::table3_sweep(ctx.ch, spec);

    // Normalization point: Xeon with 8 cores (first half of sweep is
    // Xeon in ascending core order).
    const core::CoreCountPoint* xeon8 = nullptr;
    for (const auto& p : sweep)
      if (p.server == arch::xeon_e5_2420().name && p.cores == 8) xeon8 = &p;

    rep.text(strf("--- %s ---\n", wl::long_name(id).c_str()));
    Table t("spider_" + wl::short_name(id), {"config", "EDP", "ED2P", "EDAP", "ED2AP"});
    auto find = [&](const std::string& server, int cores) -> const core::CoreCountPoint* {
      for (const auto& p : sweep)
        if (p.server == server && p.cores == cores) return &p;
      return nullptr;
    };
    for (const auto& p : sweep) {
      std::string label = p.server == arch::xeon_e5_2420().name ? "X" : "A";
      label += std::to_string(p.cores);
      double edp_n = p.metrics.edp() / xeon8->metrics.edp();
      double edap_n = p.metrics.edap() / xeon8->metrics.edap();
      t.add_row({Cell::txt(label), report::fixed(edp_n, 2),
                 report::fixed(p.metrics.ed2p() / xeon8->metrics.ed2p(), 2),
                 report::fixed(edap_n, 2),
                 report::fixed(p.metrics.ed2ap() / xeon8->metrics.ed2ap(), 2)});
      if (p.server == arch::atom_c2758().name && edap_n >= edp_n) {
        edap_leq = false;
        edap_detail += wl::short_name(id) + " " + label + "; ";
      }
    }
    rep.add(std::move(t));
    rep.text("\n");

    const auto* x2 = find(arch::xeon_e5_2420().name, 2);
    const auto* x4 = find(arch::xeon_e5_2420().name, 4);
    const auto* x8 = xeon8;
    const auto* a2 = find(arch::atom_c2758().name, 2);
    const auto* a8 = find(arch::atom_c2758().name, 8);
    if (id == wl::WorkloadId::kSort) {
      sort_xeon = a8->metrics.edp() > x8->metrics.edp();
    } else if (a8->metrics.edp() >= x2->metrics.edp()) {
      a8_beats_x2 = false;
      a8_detail += wl::short_name(id) + "; ";
    }
    // WC's tiny A2 ED2P keeps Atom ahead even under ED2P, so it is the
    // one documented exception here.
    if (id != wl::WorkloadId::kWordCount && x4->metrics.ed2p() >= a2->metrics.ed2p()) {
      x4_ed2p = false;
      ed2p_detail += wl::short_name(id) + "; ";
    }
    if (id == wl::WorkloadId::kNaiveBayes) {
      const auto* a4 = find(arch::atom_c2758().name, 4);
      const auto* a6 = find(arch::atom_c2758().name, 6);
      nb_monotone = a2->metrics.edap() > a4->metrics.edap() &&
                    a4->metrics.edap() > a6->metrics.edap() &&
                    a6->metrics.edap() > a8->metrics.edap();
    }
  }
  rep.text(
      "paper shapes: Atom configurations dominate EDP for everything but Sort (even\n"
      "8 Atom cores beat 2 Xeon cores); under ED2P 4+ Xeon cores overtake small Atom\n"
      "configurations; EDAP favors small Atom configurations; for the real-world\n"
      "apps more cores keep paying even on EDAP.\n");

  rep.check("a8-edp-beats-x2-except-sort", a8_beats_x2, a8_detail);
  rep.check("sort-edp-favors-xeon-at-any-core-count", sort_xeon);
  rep.check("x4-ed2p-overtakes-a2-except-wordcount", x4_ed2p, ed2p_detail);
  rep.check("edap-flatters-atom-relative-to-edp", edap_leq, edap_detail);
  rep.check("nb-atom-edap-monotone-down-with-cores", nb_monotone);
  return rep;
}

}  // namespace

void register_fig17(report::FigureRegistry& r) {
  r.add({"fig17", "", "Spider-graph cost metrics normalized to 8 Xeon cores",
         "Sec. 3.5, Fig. 17",
         "Atom dominates EDP except Sort; ED2P pulls Xeon back; area term flatters Atom", build});
}

}  // namespace bvl::figs
