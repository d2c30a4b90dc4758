// Fails with "poisoned" after the determinism prelude: a campaign
// chunk scheduler that shuffles execution order with an RNG engine
// and keeps published chunks in an unordered container. Each line
// marked "poisoned:" must fail on the names it lists. The prelude
// does not include <random> or <unordered_set>, and including either
// after it fails inside the standard header, so this file leaves them
// out and fails on its own lines.

#include <string>
#include <vector>

inline std::unordered_set<std::string> publishedChunks;  // poisoned: unordered_set

inline void
shuffleChunks(std::vector<int> &chunks)
{
    std::mt19937 gen(std::random_device{}());  // poisoned: mt19937 random_device
    for (std::size_t i = chunks.size(); i > 1; --i) {
        std::uniform_int_distribution<std::size_t> pick(0, i - 1);
        std::swap(chunks[i - 1], chunks[pick(gen)]);
    }
}
