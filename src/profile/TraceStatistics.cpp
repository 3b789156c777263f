//===- profile/TraceStatistics.cpp - Section 4 instrumentation ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "profile/TraceStatistics.h"

using namespace aoci;

void TraceStatistics::record(const Program &P,
                             const std::vector<MethodId> &Chain,
                             unsigned RecordedDepthValue) {
  RecordedDepth.add(RecordedDepthValue);
  for (unsigned S = 0; S != NumChainStops; ++S) {
    size_t First = 0;
    while (First != Chain.size() &&
           !isChainStop(P, Chain[First], static_cast<ChainStop>(S)))
      ++First;
    FirstStop[S].add(First);
  }
}

double TraceStatistics::meanRecordedDepth() const {
  if (RecordedDepth.total() == 0)
    return 0;
  double Sum = 0;
  for (size_t I = 0; I != RecordedDepth.numBuckets(); ++I)
    Sum += static_cast<double>(I) * static_cast<double>(RecordedDepth.count(I));
  return Sum / static_cast<double>(RecordedDepth.total());
}
